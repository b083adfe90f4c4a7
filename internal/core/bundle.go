package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/iese-repro/tauw/internal/fusion"
	"github.com/iese-repro/tauw/internal/uw"
)

// Bundle is the single-artifact deployment format of a timeseries-aware
// uncertainty wrapper: both calibrated quality impact models plus the
// assembly configuration. Everything needed at runtime, nothing from
// training. Scope-compliance models carry deployment-specific boundaries
// and are attached programmatically after loading.
type Bundle struct {
	// Version guards the format.
	Version int `json:"version"`
	// BaseQIM and TAQIM are the serialised quality impact models.
	BaseQIM json.RawMessage `json:"base_qim"`
	TAQIM   json.RawMessage `json:"taqim"`
	// Features is the taQF subset the taQIM was fitted with.
	Features []Feature `json:"features"`
	// Fuser names the information-fusion rule.
	Fuser string `json:"fuser"`
	// BufferLimit is the timeseries-buffer cap (0 = unbounded).
	BufferLimit int `json:"buffer_limit"`
}

// bundleVersion is the current format version.
const bundleVersion = 1

// SaveBundle serialises a wrapper into the deployment format. Only the
// fusion rules shipped with this package can be named in a bundle; wrappers
// assembled around custom fusers must be re-assembled programmatically.
func SaveBundle(w *Wrapper) ([]byte, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil wrapper")
	}
	if _, err := fuserByName(w.fuser.Name()); err != nil {
		return nil, fmt.Errorf("core: cannot bundle: %w", err)
	}
	baseData, err := json.Marshal(w.base.QIM())
	if err != nil {
		return nil, fmt.Errorf("core: encode base QIM: %w", err)
	}
	taData, err := json.Marshal(w.taqim)
	if err != nil {
		return nil, fmt.Errorf("core: encode taQIM: %w", err)
	}
	return json.Marshal(Bundle{
		Version:     bundleVersion,
		BaseQIM:     baseData,
		TAQIM:       taData,
		Features:    append([]Feature(nil), w.feats...),
		Fuser:       w.fuser.Name(),
		BufferLimit: w.buf.limit,
	})
}

// LoadBundle reassembles a ready-to-use wrapper from the deployment format.
// The optional scope model is attached to the base wrapper (nil disables
// scope checking).
func LoadBundle(data []byte, scope *uw.ScopeModel) (*Wrapper, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("core: decode bundle: %w", err)
	}
	if b.Version != bundleVersion {
		return nil, fmt.Errorf("core: unsupported bundle version %d (want %d)", b.Version, bundleVersion)
	}
	qim, err := uw.LoadQIM(b.BaseQIM)
	if err != nil {
		return nil, fmt.Errorf("core: load base QIM: %w", err)
	}
	taqim, err := uw.LoadQIM(b.TAQIM)
	if err != nil {
		return nil, fmt.Errorf("core: load taQIM: %w", err)
	}
	fuser, err := fuserByName(b.Fuser)
	if err != nil {
		return nil, err
	}
	base, err := uw.NewWrapper(qim, scope)
	if err != nil {
		return nil, err
	}
	return NewWrapper(base, taqim, Config{
		Features:    b.Features,
		Fuser:       fuser,
		BufferLimit: b.BufferLimit,
	})
}

// Fingerprint identifies a calibrated model pair: the SHA-256 of the base
// QIM's JSON followed by the taQIM's JSON, the two models a Bundle carries.
// Both encodings are deterministic and LoadQIM re-marshals them byte for
// byte, so a model pair keeps its fingerprint through SaveBundle and
// LoadBundle. The zero value means "unknown".
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// ModelFingerprint computes the Fingerprint of a base QIM and a taQIM.
func ModelFingerprint(base, taqim *uw.QualityImpactModel) (Fingerprint, error) {
	h := sha256.New()
	for _, q := range []*uw.QualityImpactModel{base, taqim} {
		js, err := q.MarshalJSON()
		if err != nil {
			return Fingerprint{}, fmt.Errorf("core: fingerprint model: %w", err)
		}
		// A JSON value is self-delimiting, so the concatenation is
		// unambiguous without a separator.
		h.Write(js)
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f, nil
}

// fuserByName resolves the fusion rules shipped with this module.
func fuserByName(name string) (fusion.OutcomeFuser, error) {
	switch name {
	case fusion.MajorityVote{}.Name():
		return fusion.MajorityVote{}, nil
	case (fusion.MajorityVote{TieBreak: fusion.LowestUncertainty}).Name():
		return fusion.MajorityVote{TieBreak: fusion.LowestUncertainty}, nil
	case fusion.CertaintyWeighted{}.Name():
		return fusion.CertaintyWeighted{}, nil
	case fusion.Latest{}.Name():
		return fusion.Latest{}, nil
	case fusion.DempsterShafer{}.Name():
		return fusion.DempsterShafer{}, nil
	default:
		return nil, fmt.Errorf("core: unknown fusion rule %q", name)
	}
}
