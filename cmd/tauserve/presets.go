// presets.go holds the calibrated wrappers -preset names. The source paper
// calibrates the wrapper offline and only applies it at runtime (Fig. 3);
// tauserve does the same. Each preset is a core.Bundle built from the
// internal/eval study of the same name and compiled into the binary, so
// start-up loads a few kilobytes of JSON instead of training the DDM and
// fitting both quality impact models. presets_test.go pins every file to a
// fresh study build and regenerates them with -update.
package main

import (
	"embed"
	"fmt"

	"github.com/iese-repro/tauw/internal/core"
)

//go:embed presets/*.json
var presetBundles embed.FS

// loadPreset assembles the wrapper of the named preset from its embedded
// bundle.
func loadPreset(name string) (*core.Wrapper, error) {
	data, err := presetBundles.ReadFile("presets/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown preset %q (want tiny, quick, or paper)", name)
	}
	return core.LoadBundle(data, nil)
}
