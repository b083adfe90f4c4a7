package ddm

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/iese-repro/tauw/internal/augment"
	"github.com/iese-repro/tauw/internal/gtsrb"
)

func newModel(t *testing.T) *FeatureModel {
	t.Helper()
	m, err := NewFeatureModel(DefaultFeatureConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFeatureConfigValidate(t *testing.T) {
	bad := []FeatureConfig{
		{Dim: 0, FamilySpread: 1, ClassSpread: 1},
		{Dim: 8, FamilySpread: 0, ClassSpread: 1},
		{Dim: 8, FamilySpread: 1, ClassSpread: 1, NoiseBase: -1},
		{Dim: 8, FamilySpread: 1, ClassSpread: 1, ContrastLoss: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if err := DefaultFeatureConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestPrototypeFamilyStructure(t *testing.T) {
	m := newModel(t)
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	proto := func(c int) []float64 {
		p, err := m.Prototype(c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Mean within-family distance must be smaller than cross-family.
	var within, cross float64
	var nWithin, nCross int
	cat := gtsrb.Catalog()
	for i := 0; i < gtsrb.NumClasses; i++ {
		for j := i + 1; j < gtsrb.NumClasses; j++ {
			d := dist(proto(i), proto(j))
			if cat[i].Family == cat[j].Family {
				within += d
				nWithin++
			} else {
				cross += d
				nCross++
			}
		}
	}
	if within/float64(nWithin) >= cross/float64(nCross) {
		t.Errorf("within-family distance %.3f not smaller than cross-family %.3f",
			within/float64(nWithin), cross/float64(nCross))
	}
}

func TestPrototypeErrors(t *testing.T) {
	m := newModel(t)
	if _, err := m.Prototype(-1); err == nil {
		t.Error("negative class must fail")
	}
	if _, err := m.Prototype(gtsrb.NumClasses); err == nil {
		t.Error("class 43 must fail")
	}
}

func TestObserveDegradation(t *testing.T) {
	m := newModel(t)
	// The SNR proxy must fall with severity and with distance.
	var clean, dirty augment.Intensities
	dirty[augment.Haze] = 0.9
	dirty[augment.SteamedLens] = 0.8
	if m.severityProxy(200, clean) <= m.severityProxy(200, dirty) {
		t.Error("deficits must reduce SNR")
	}
	if m.severityProxy(200, clean) <= m.severityProxy(20, clean) {
		t.Error("small signs must reduce SNR")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := m.Observe(-1, 100, clean, nil, rng); err == nil {
		t.Error("invalid class must fail")
	}
	x, err := m.Observe(3, 100, clean, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != m.Dim() {
		t.Errorf("observation dim %d, want %d", len(x), m.Dim())
	}
}

func TestDatasetShapeAndDeterminism(t *testing.T) {
	m := newModel(t)
	gcfg := gtsrb.DefaultGeneratorConfig()
	gcfg.NumSeries = 4
	series, err := gtsrb.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := augment.NewPool(3, 50)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]augment.Intensities, len(series))
	for i, s := range series {
		set, err := pool.Setting(i)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = augment.Apply(set, s, 7)
	}
	a, err := m.Dataset(series, frames, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Dataset(series, frames, 11)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, s := range series {
		wantN += s.Len()
	}
	if len(a) != wantN {
		t.Fatalf("dataset has %d samples, want %d", len(a), wantN)
	}
	for i := range a {
		if a[i].Class != b[i].Class {
			t.Fatal("dataset classes differ between runs")
		}
		for d := range a[i].X {
			if a[i].X[d] != b[i].X[d] {
				t.Fatal("dataset features differ between runs")
			}
		}
	}
	// Shape mismatches must fail.
	if _, err := m.Dataset(series, frames[:1], 11); err == nil {
		t.Error("mismatched series/frames must fail")
	}
	badFrames := make([][]augment.Intensities, len(series))
	copy(badFrames, frames)
	badFrames[0] = frames[0][:1]
	if _, err := m.Dataset(series, badFrames, 11); err == nil {
		t.Error("short intensity vector must fail")
	}
}

// threeClassBlobs builds an easy 3-class dataset for trainer tests.
func threeClassBlobs(n int, noise float64, seed uint64) []Sample {
	rng := rand.New(rand.NewPCG(seed, 0))
	centres := [][]float64{{3, 0}, {-3, 1}, {0, -3}}
	out := make([]Sample, n)
	for i := range out {
		c := i % 3
		out[i] = Sample{
			X:     []float64{centres[c][0] + rng.NormFloat64()*noise, centres[c][1] + rng.NormFloat64()*noise},
			Class: c,
		}
	}
	return out
}

func TestTrainSoftmaxLearnsBlobs(t *testing.T) {
	train := threeClassBlobs(600, 0.5, 1)
	test := threeClassBlobs(300, 0.5, 2)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	var lastLoss float64
	cfg.Progress = func(_ int, loss float64) { lastLoss = loss }
	model, err := TrainSoftmax(train, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.97 {
		t.Errorf("softmax accuracy %.3f on easy blobs, want >= 0.97", ev.Accuracy)
	}
	if lastLoss <= 0 || lastLoss > 0.2 {
		t.Errorf("final loss %.4f not converged", lastLoss)
	}
	scores, err := model.Scores(test[0].X)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range scores {
		if s < 0 {
			t.Error("negative probability")
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("scores sum to %g", sum)
	}
}

func TestTrainSoftmaxErrors(t *testing.T) {
	good := threeClassBlobs(30, 0.5, 1)
	if _, err := TrainSoftmax(nil, 3, DefaultTrainConfig()); err == nil {
		t.Error("empty training set must fail")
	}
	if _, err := TrainSoftmax(good, 1, DefaultTrainConfig()); err == nil {
		t.Error("single class must fail")
	}
	bad := append([]Sample{}, good...)
	bad[3] = Sample{X: []float64{1}, Class: 0}
	if _, err := TrainSoftmax(bad, 3, DefaultTrainConfig()); err == nil {
		t.Error("ragged features must fail")
	}
	bad2 := append([]Sample{}, good...)
	bad2[3] = Sample{X: []float64{1, 2}, Class: 7}
	if _, err := TrainSoftmax(bad2, 3, DefaultTrainConfig()); err == nil {
		t.Error("out-of-range class must fail")
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 0
	if _, err := TrainSoftmax(good, 3, cfg); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestSoftmaxPredictShapeErrors(t *testing.T) {
	model, err := TrainSoftmax(threeClassBlobs(60, 0.3, 4), 3, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Predict([]float64{1}); err == nil {
		t.Error("wrong input width must fail")
	}
	if _, err := model.Scores([]float64{1, 2, 3}); err == nil {
		t.Error("wrong input width must fail")
	}
}

func TestSoftmaxSerialisationRoundTrip(t *testing.T) {
	model, err := TrainSoftmax(threeClassBlobs(60, 0.3, 4), 3, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := model.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSoftmax(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1.5, -0.5}
	p1, _ := model.Predict(x)
	p2, err := loaded.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("loaded model predicts %d, original %d", p2, p1)
	}
	if _, err := LoadSoftmax([]byte("{nope")); err == nil {
		t.Error("corrupt JSON must fail")
	}
	if _, err := LoadSoftmax([]byte(`{"W":[[1,2]],"Dim":1,"Classes":2}`)); err == nil {
		t.Error("row-count mismatch must fail")
	}
	if _, err := LoadSoftmax([]byte(`{"W":[[1],[1]],"Dim":3,"Classes":2}`)); err == nil {
		t.Error("row-width mismatch must fail")
	}
	if _, err := LoadSoftmax([]byte(`{"W":[],"Dim":0,"Classes":0}`)); err == nil {
		t.Error("fewer than two classes must fail")
	}
	if _, err := LoadSoftmax([]byte(`{"W":[[1],[1]],"Dim":0,"Classes":2}`)); err == nil {
		t.Error("zero features must fail")
	}
}

func TestTrainMLPLearnsBlobs(t *testing.T) {
	train := threeClassBlobs(600, 0.5, 5)
	test := threeClassBlobs(300, 0.5, 6)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 8
	cfg.LearningRate = 0.05
	model, err := TrainMLP(train, 3, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.97 {
		t.Errorf("MLP accuracy %.3f on easy blobs, want >= 0.97", ev.Accuracy)
	}
	scores, err := model.Scores(test[1].X)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("MLP scores sum to %g", sum)
	}
}

func TestTrainMLPErrors(t *testing.T) {
	good := threeClassBlobs(30, 0.5, 1)
	if _, err := TrainMLP(nil, 3, 8, DefaultTrainConfig()); err == nil {
		t.Error("empty training set must fail")
	}
	if _, err := TrainMLP(good, 3, 0, DefaultTrainConfig()); err == nil {
		t.Error("zero hidden units must fail")
	}
	if _, err := TrainMLP(good, 1, 8, DefaultTrainConfig()); err == nil {
		t.Error("single class must fail")
	}
	bad := append([]Sample{}, good...)
	bad[0] = Sample{X: []float64{1, 2}, Class: -1}
	if _, err := TrainMLP(bad, 3, 8, DefaultTrainConfig()); err == nil {
		t.Error("negative class must fail")
	}
}

func TestMLPShapeErrors(t *testing.T) {
	model, err := TrainMLP(threeClassBlobs(60, 0.3, 9), 3, 8, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Predict([]float64{1, 2, 3}); err == nil {
		t.Error("wrong width must fail")
	}
	if _, err := model.Scores([]float64{1}); err == nil {
		t.Error("wrong width must fail")
	}
}

func TestEvaluate(t *testing.T) {
	model, err := TrainSoftmax(threeClassBlobs(300, 0.3, 8), 3, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	test := threeClassBlobs(90, 0.3, 9)
	ev, err := Evaluate(model, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.N != 90 {
		t.Errorf("N = %d", ev.N)
	}
	total := 0
	diag := 0
	for i, row := range ev.Confusion {
		for j, v := range row {
			total += v
			if i == j {
				diag += v
			}
		}
	}
	if total != ev.N || diag != ev.Correct {
		t.Errorf("confusion matrix inconsistent: total=%d diag=%d", total, diag)
	}
	if math.Abs(ev.Accuracy+ev.MisclassificationRate()-1) > 1e-12 {
		t.Error("accuracy + misclassification != 1")
	}
	recalls := ev.PerClassRecall()
	if len(recalls) != 3 {
		t.Fatalf("recall length %d", len(recalls))
	}
	for c, r := range recalls {
		if r < 0 || r > 1 {
			t.Errorf("recall[%d] = %g", c, r)
		}
	}
	if _, err := Evaluate(model, nil); err == nil {
		t.Error("empty evaluation must fail")
	}
	badSamples := []Sample{{X: []float64{1, 2}, Class: 99}}
	if _, err := Evaluate(model, badSamples); err == nil {
		t.Error("out-of-range class must fail")
	}
}

func TestTrainConfigValidate(t *testing.T) {
	bad := []TrainConfig{
		{Epochs: 0, BatchSize: 8, LearningRate: 0.1},
		{Epochs: 1, BatchSize: 0, LearningRate: 0.1},
		{Epochs: 1, BatchSize: 8, LearningRate: 0},
		{Epochs: 1, BatchSize: 8, LearningRate: 0.1, Momentum: 1},
		{Epochs: 1, BatchSize: 8, LearningRate: 0.1, L2: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

// End-to-end: a classifier trained on the synthetic GTSRB pipeline must do
// clearly better on clean close-ups than on degraded distant frames.
func TestPipelineDegradationAffectsAccuracy(t *testing.T) {
	m := newModel(t)
	rng := rand.New(rand.NewPCG(21, 22))
	mk := func(px float64, in augment.Intensities, n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			class := i % gtsrb.NumClasses
			x, err := m.Observe(class, px, in, nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = Sample{X: x, Class: class}
		}
		return out
	}
	var clean, hard augment.Intensities
	hard[augment.Haze] = 0.8
	hard[augment.Darkness] = 0.9
	hard[augment.MotionBlur] = 0.7
	train := append(mk(150, clean, 2000), mk(40, hard, 2000)...)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 4
	model, err := TrainSoftmax(train, gtsrb.NumClasses, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evClean, err := Evaluate(model, mk(150, clean, 1000))
	if err != nil {
		t.Fatal(err)
	}
	evHard, err := Evaluate(model, mk(40, hard, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if evClean.Accuracy < evHard.Accuracy+0.1 {
		t.Errorf("degradation must cost accuracy: clean %.3f vs hard %.3f",
			evClean.Accuracy, evHard.Accuracy)
	}
	if evClean.Accuracy < 0.8 {
		t.Errorf("clean accuracy %.3f too low; feature model miscalibrated", evClean.Accuracy)
	}
}
