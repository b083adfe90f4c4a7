package dtree

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"github.com/iese-repro/tauw/internal/stats"
)

// sepData builds a dataset where failures happen exactly when x0 > 0.5.
func sepData(n int, seed uint64) ([][]float64, []bool) {
	rng := rand.New(rand.NewPCG(seed, 1))
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = x[i][0] > 0.5
	}
	return x, y
}

func TestFitSeparable(t *testing.T) {
	x, y := sepData(500, 3)
	tr, err := Fit(x, y, Config{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if root.IsLeaf() {
		t.Fatal("separable data must split the root")
	}
	if root.Feature != 0 {
		t.Errorf("root splits on feature %d, want 0", root.Feature)
	}
	if math.Abs(root.Threshold-0.5) > 0.05 {
		t.Errorf("root threshold = %g, want about 0.5", root.Threshold)
	}
	// Training rates of the two sides must be pure.
	for _, tc := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{0.1, 0.9}, 0},
		{[]float64{0.9, 0.1}, 1},
	} {
		r, err := tr.TrainRate(tc.x)
		if err != nil {
			t.Fatal(err)
		}
		if r != tc.want {
			t.Errorf("TrainRate(%v) = %g, want %g", tc.x, r, tc.want)
		}
	}
}

func TestFitRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	n := 2000
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// A deep XOR-ish target that wants many splits.
		y[i] = (x[i][0] > 0.5) != (x[i][1] > 0.5) != (x[i][2] > 0.5)
	}
	for _, depth := range []int{1, 2, 4, 8} {
		tr, err := Fit(x, y, Config{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Depth(); got > depth {
			t.Errorf("depth %d exceeds limit %d", got, depth)
		}
	}
}

func TestFitPureNodeStops(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []bool{false, false, false, false}
	tr, err := Fit(x, y, Config{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root().IsLeaf() {
		t.Error("pure node must not split")
	}
	if tr.NumLeaves() != 1 {
		t.Errorf("leaves = %d, want 1", tr.NumLeaves())
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Config{}); err == nil {
		t.Error("empty training set must fail")
	}
	if _, err := Fit([][]float64{{1}}, []bool{true, false}, Config{}); err == nil {
		t.Error("shape mismatch must fail")
	}
	if _, err := Fit([][]float64{{}}, []bool{true}, Config{}); err == nil {
		t.Error("zero features must fail")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []bool{true, false}, Config{}); err == nil {
		t.Error("ragged rows must fail")
	}
}

func TestMinLeafSamplesDuringGrowth(t *testing.T) {
	x, y := sepData(100, 9)
	tr, err := Fit(x, y, Config{MaxDepth: 8, MinLeafSamples: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		if leaf.Count < 30 {
			t.Errorf("leaf with %d < 30 training samples", leaf.Count)
		}
	}
}

func TestLeafErrorsOnWrongWidth(t *testing.T) {
	x, y := sepData(50, 2)
	tr, err := Fit(x, y, Config{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Leaf([]float64{1}); err == nil {
		t.Error("wrong feature count must fail")
	}
	if _, err := tr.Apply([]float64{1, 2, 3}); err == nil {
		t.Error("wrong feature count must fail")
	}
}

func TestPredictValueRequiresCalibration(t *testing.T) {
	x, y := sepData(50, 2)
	tr, err := Fit(x, y, Config{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.PredictValue(x[0]); err == nil {
		t.Error("uncalibrated tree must refuse PredictValue")
	}
}

func cpBound(k, n int) (float64, error) {
	return stats.BinomialUpperBound(stats.ClopperPearson, k, n, 0.999)
}

func TestCalibrateBoundsAndPruning(t *testing.T) {
	x, y := sepData(2000, 11)
	tr, err := Fit(x, y, Config{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	cx, cy := sepData(2000, 13)
	if err := tr.Calibrate(cx, cy, 200, cpBound); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range tr.Leaves() {
		if leaf.CalibCount < 200 {
			t.Errorf("leaf %d kept only %d calibration samples", leaf.LeafID, leaf.CalibCount)
		}
		if math.IsNaN(leaf.Value) || leaf.Value < 0 || leaf.Value > 1 {
			t.Errorf("leaf %d has invalid value %g", leaf.LeafID, leaf.Value)
		}
		// Dependable: the bound must not be below the observed rate.
		rate := float64(leaf.CalibEvents) / float64(leaf.CalibCount)
		if leaf.Value < rate {
			t.Errorf("leaf %d bound %g below observed rate %g", leaf.LeafID, leaf.Value, rate)
		}
	}
	// The clean side of a separable split should provide a low bound.
	v, err := tr.PredictValue([]float64{0.1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.05 {
		t.Errorf("clean region bound = %g, want < 0.05", v)
	}
	minV, err := tr.MinLeafValue()
	if err != nil {
		t.Fatal(err)
	}
	if minV > v {
		t.Errorf("MinLeafValue %g > observed %g", minV, v)
	}
}

func TestCalibratePrunesEverythingOnTinyCalibSet(t *testing.T) {
	x, y := sepData(500, 17)
	tr, err := Fit(x, y, Config{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 250 calibration samples with >=200 per leaf can keep at most one
	// leaf: the tree must collapse to the root.
	cx, cy := sepData(250, 19)
	if err := tr.Calibrate(cx, cy, 200, cpBound); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 {
		t.Errorf("leaves = %d, want 1 after aggressive pruning", tr.NumLeaves())
	}
}

func TestCalibrateErrors(t *testing.T) {
	x, y := sepData(100, 23)
	tr, err := Fit(x, y, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Calibrate(nil, nil, 10, cpBound); err == nil {
		t.Error("empty calibration set must fail")
	}
	if err := tr.Calibrate(x, y[:10], 10, cpBound); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := tr.Calibrate([][]float64{{1}}, []bool{true}, 1, cpBound); err == nil {
		t.Error("wrong width calibration rows must fail")
	}
	if err := tr.Calibrate(x, y, len(x)+1, cpBound); err == nil {
		t.Error("min leaf larger than calibration set must fail")
	}
}

func TestRulesAndDOT(t *testing.T) {
	x, y := sepData(400, 29)
	tr, err := Fit(x, y, Config{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Calibrate(x, y, 50, cpBound); err != nil {
		t.Fatal(err)
	}
	rules := tr.Rules([]string{"rain", "blur"})
	if !strings.Contains(rules, "rain") {
		t.Errorf("rules missing feature name:\n%s", rules)
	}
	if !strings.Contains(rules, "leaf") {
		t.Errorf("rules missing leaves:\n%s", rules)
	}
	dot := tr.DOT(nil)
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "x[0]") {
		t.Errorf("unexpected DOT output:\n%s", dot)
	}
}

func TestFeatureImportance(t *testing.T) {
	x, y := sepData(1000, 31)
	tr, err := Fit(x, y, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	if len(imp) != 2 {
		t.Fatalf("importance length %d", len(imp))
	}
	if imp[0] < 0.9 {
		t.Errorf("informative feature importance %g, want > 0.9", imp[0])
	}
	sum := imp[0] + imp[1]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %g", sum)
	}
}

func TestFeatureImportanceStump(t *testing.T) {
	x := [][]float64{{1}, {2}}
	y := []bool{false, false}
	tr, err := Fit(x, y, Config{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	if imp[0] != 0 {
		t.Errorf("stump importance = %g, want 0", imp[0])
	}
}

func TestEntropyCriterion(t *testing.T) {
	x, y := sepData(500, 37)
	tr, err := Fit(x, y, Config{MaxDepth: 3, Criterion: Entropy})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root().IsLeaf() {
		t.Fatal("entropy tree must split separable data")
	}
	if tr.Root().Feature != 0 {
		t.Errorf("entropy tree splits on %d, want 0", tr.Root().Feature)
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Error("criterion names wrong")
	}
	if !strings.Contains(Criterion(9).String(), "9") {
		t.Error("unknown criterion should include number")
	}
}

// Property: Apply always lands in a valid dense leaf id, and the leaf
// returned by Leaf agrees with Apply.
func TestApplyConsistency(t *testing.T) {
	x, y := sepData(300, 41)
	tr, err := Fit(x, y, Config{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		p := []float64{float64(a) / 65535, float64(b) / 65535}
		id, err := tr.Apply(p)
		if err != nil {
			return false
		}
		leaf, err := tr.Leaf(p)
		if err != nil {
			return false
		}
		return id == leaf.LeafID && id >= 0 && id < tr.NumLeaves()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: leaf training counts partition the training set.
func TestLeafCountsPartition(t *testing.T) {
	f := func(seed uint64, rawN uint16) bool {
		n := int(rawN%400) + 20
		x, y := sepData(n, seed)
		tr, err := Fit(x, y, Config{MaxDepth: 6})
		if err != nil {
			return false
		}
		total := 0
		for _, leaf := range tr.Leaves() {
			total += leaf.Count
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFitTieHeavyRulesPinned fits a tree on features quantised to a few
// levels, so every column sort is dominated by ties, and requires the exact
// rules the tree has always produced on it: a split falls only between
// distinct values, so the sort's placement of tied values must move no
// threshold and no count.
func TestFitTieHeavyRulesPinned(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	x := make([][]float64, 800)
	y := make([]bool, len(x))
	for i := range x {
		x[i] = []float64{
			float64(rng.IntN(4)) / 3,
			float64(rng.IntN(3)),
			float64(rng.IntN(5)) * 0.25,
		}
		p := 0.05 + 0.3*x[i][0] + 0.15*x[i][1]*x[i][2]
		y[i] = rng.Float64() < p
	}
	tr, err := Fit(x, y, Config{MaxDepth: 4, MinLeafSamples: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Calibrate(x, y, 40, cpBound); err != nil {
		t.Fatal(err)
	}
	got := tr.Rules([]string{"rain", "blur", "dirt"})
	const want = `if rain <= 0.5:
  if blur <= 0.5:
    if dirt <= 0.625:
      => leaf 0: u<=0.237488 (train 7/76, calib 7/76)
    else:  # dirt > 0.625
      => leaf 1: u<=0.220427 (train 3/54, calib 3/54)
  else:  # blur > 0.5
    if dirt <= 0.375:
      if dirt <= 0.125:
        => leaf 2: u<=0.252087 (train 4/53, calib 4/53)
      else:  # dirt > 0.125
        => leaf 3: u<=0.362944 (train 9/55, calib 9/55)
    else:  # dirt > 0.375
      if rain <= 0.166667:
        => leaf 4: u<=0.397156 (train 21/89, calib 21/89)
      else:  # rain > 0.166667
        => leaf 5: u<=0.524188 (train 29/83, calib 29/83)
else:  # rain > 0.5
  if dirt <= 0.125:
    => leaf 6: u<=0.404262 (train 19/81, calib 19/81)
  else:  # dirt > 0.125
    if blur <= 0.5:
      => leaf 7: u<=0.523357 (train 36/99, calib 36/99)
    else:  # blur > 0.5
      if dirt <= 0.625:
        => leaf 8: u<=0.578564 (train 45/106, calib 45/106)
      else:  # dirt > 0.625
        => leaf 9: u<=0.652258 (train 52/104, calib 52/104)
`
	if got != want {
		t.Errorf("rules changed:\n%s", got)
	}
}
