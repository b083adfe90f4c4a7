// presets_test.go pins the embedded preset bundles to the code that
// calibrates them: each test rebuilds its preset's study and requires
// core.SaveBundle of the study's wrapper to equal the committed file byte
// for byte. It is also the generator:
//
//	go test ./cmd/tauserve -run TestPresetBundles -update          # tiny, quick
//	go test ./cmd/tauserve -run TestPresetBundles -update -paper   # and paper
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/iese-repro/tauw/internal/core"
	"github.com/iese-repro/tauw/internal/eval"
)

var (
	updatePresets = flag.Bool("update", false, "rewrite cmd/tauserve/presets/*.json from fresh study builds")
	pinPaper      = flag.Bool("paper", false, "also rebuild the paper preset (about 18 s, several times that under -race)")
)

// presetStudies are the studies the embedded bundles are built from.
func presetStudies() []eval.StudyConfig {
	return []eval.StudyConfig{eval.TinyConfig(), eval.QuickConfig(), eval.PaperConfig()}
}

// pinHint explains the usual cause of a pin failure on amd64.
const pinHint = `If the tree and every count match and only bounds, thresholds or gains
differ in their last digits, this CPU computed the study with another math.Exp
kernel: on amd64, math.Exp switches to an FMA kernel when the CPU has AVX and FMA
(math/exp_amd64.go). The committed bundles were generated on such a CPU;
GODEBUG=cpu.fma=off reproduces the other kernel. Otherwise the study code changed:
if that was intended, regenerate the bundles with -update (and -paper).`

func TestPresetBundles(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("preset bundles are pinned on amd64 only: on %s the compiler fuses a*b+c "+
			"into multiply-add instructions, so the study's floats differ", runtime.GOARCH)
	}
	for _, cfg := range presetStudies() {
		t.Run(cfg.Name, func(t *testing.T) {
			if cfg.Name == "paper" && !*pinPaper {
				t.Skip("the paper study takes ~18 s to build; run with -paper")
			}
			st, err := eval.BuildStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := st.Wrapper()
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := core.SaveBundle(w)
			if err != nil {
				t.Fatal(err)
			}
			if *updatePresets {
				if err := os.WriteFile(filepath.Join("presets", cfg.Name+".json"), rebuilt, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			committed, err := presetBundles.ReadFile("presets/" + cfg.Name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(committed, rebuilt) {
				t.Fatalf("presets/%s.json differs from the bundle its study builds: %s\n%s",
					cfg.Name, bundleDiff(committed, rebuilt), pinHint)
			}
		})
	}
}

// TestPresetFilesMatchStudies keeps the embedded directory and the pinned
// study list in step: an extra file would be served unpinned.
func TestPresetFilesMatchStudies(t *testing.T) {
	entries, err := presetBundles.ReadDir("presets")
	if err != nil {
		t.Fatal(err)
	}
	var files, studies []string
	for _, e := range entries {
		files = append(files, strings.TrimSuffix(e.Name(), ".json"))
	}
	for _, cfg := range presetStudies() {
		studies = append(studies, cfg.Name)
		if _, err := loadPreset(cfg.Name); err != nil {
			t.Errorf("preset %s: %v", cfg.Name, err)
		}
	}
	slices.Sort(files)
	slices.Sort(studies)
	if !slices.Equal(files, studies) {
		t.Fatalf("embedded presets %v, pinned studies %v", files, studies)
	}
}

// TestBundleDiffNamesFlippedCount shows the pin guards a one-count drift
// and reports where it is.
func TestBundleDiffNamesFlippedCount(t *testing.T) {
	committed, err := presetBundles.ReadFile("presets/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte(`"calib_events":`)
	at := bytes.Index(committed, key) + len(key)
	end := at + bytes.IndexAny(committed[at:], ",}")
	n, err := strconv.Atoi(string(committed[at:end]))
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Concat(committed[:at], []byte(strconv.Itoa(n+1)), committed[end:])
	want := fmt.Sprintf("base_qim.tree.nodes[0].calib_events: committed %d, rebuilt %d", n, n+1)
	if got := bundleDiff(committed, flipped); got != want {
		t.Fatalf("bundleDiff = %q, want %q", got, want)
	}
}

// bundleDiff names the first JSON path, in sorted key order, at which two
// bundles differ, with both values.
func bundleDiff(committed, rebuilt []byte) string {
	a, err := decodeNumbers(committed)
	if err != nil {
		return "committed bundle: " + err.Error()
	}
	b, err := decodeNumbers(rebuilt)
	if err != nil {
		return "rebuilt bundle: " + err.Error()
	}
	if d := jsonDiff("", a, b); d != "" {
		return d
	}
	return "equal JSON values in different bytes"
}

// decodeNumbers decodes JSON keeping every number's text, so the diff
// shows the digits that differ.
func decodeNumbers(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	return v, err
}

func jsonDiff(path string, a, b any) string {
	switch a := a.(type) {
	case map[string]any:
		if b, ok := b.(map[string]any); ok {
			keys := make([]string, 0, len(a)+len(b))
			for k := range a {
				keys = append(keys, k)
			}
			for k := range b {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range slices.Compact(keys) {
				if d := jsonDiff(strings.TrimPrefix(path+"."+k, "."), a[k], b[k]); d != "" {
					return d
				}
			}
			return ""
		}
	case []any:
		if b, ok := b.([]any); ok {
			for i := range min(len(a), len(b)) {
				if d := jsonDiff(fmt.Sprintf("%s[%d]", path, i), a[i], b[i]); d != "" {
					return d
				}
			}
			if len(a) != len(b) {
				return fmt.Sprintf("%s: committed %d elements, rebuilt %d", path, len(a), len(b))
			}
			return ""
		}
	default:
		if a == b {
			return ""
		}
	}
	return fmt.Sprintf("%s: committed %v, rebuilt %v", path, a, b)
}
