package ddm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// referenceLogits is the scalar score computation the blocked kernel
// replaced: one accumulator chain per class, bias first.
func referenceLogits(s *Softmax, x []float64) []float64 {
	out := make([]float64, s.Classes)
	for c := 0; c < s.Classes; c++ {
		w := s.W[c]
		acc := w[s.Dim] // bias
		for i, xi := range x {
			acc += w[i] * xi
		}
		out[c] = acc
	}
	return out
}

// referenceTrainSoftmax is the scalar minibatch SGD loop TrainSoftmax
// reproduces bit for bit: per sample, its scores and residuals are added
// straight into the gradient, gc[i] += g*x[i]. It assumes inputs that
// TrainSoftmax has validated.
func referenceTrainSoftmax(samples []Sample, classes int, cfg TrainConfig) *Softmax {
	dim := len(samples[0].X)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x736d6178)) // "smax"
	model := &Softmax{Dim: dim, Classes: classes, W: make([][]float64, classes)}
	vel := make([][]float64, classes)
	scale := 1 / math.Sqrt(float64(dim))
	for c := range model.W {
		model.W[c] = make([]float64, dim+1)
		vel[c] = make([]float64, dim+1)
		for i := 0; i < dim; i++ {
			model.W[c][i] = rng.NormFloat64() * 0.01 * scale
		}
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	grad := make([][]float64, classes)
	for c := range grad {
		grad[c] = make([]float64, dim+1)
	}
	probs := make([]float64, classes)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LearningRate * (1 - 0.9*float64(epoch)/float64(cfg.Epochs))
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			for c := range grad {
				clear(grad[c])
			}
			for _, si := range idx[start:end] {
				s := samples[si]
				z := referenceLogits(model, s.X)
				copy(probs, z)
				softmaxInPlace(probs)
				epochLoss += -math.Log(math.Max(probs[s.Class], 1e-12))
				for c := 0; c < classes; c++ {
					g := probs[c]
					if c == s.Class {
						g -= 1
					}
					gc := grad[c]
					for i, xi := range s.X {
						gc[i] += g * xi
					}
					gc[dim] += g
				}
			}
			bs := float64(end - start)
			for c := 0; c < classes; c++ {
				wc, vc, gc := model.W[c], vel[c], grad[c]
				for i := range wc {
					g := gc[i]/bs + cfg.L2*wc[i]
					vc[i] = cfg.Momentum*vc[i] - lr*g
					wc[i] += vc[i]
				}
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(len(idx)))
		}
	}
	return model
}

// gaussianClasses draws n samples of dim features around one random centre
// per class.
func gaussianClasses(n, classes, dim int, seed uint64) []Sample {
	rng := rand.New(rand.NewPCG(seed, 17))
	centres := make([][]float64, classes)
	for c := range centres {
		centres[c] = make([]float64, dim)
		for i := range centres[c] {
			centres[c][i] = 2 * rng.NormFloat64()
		}
	}
	out := make([]Sample, n)
	for j := range out {
		c := rng.IntN(classes)
		x := make([]float64, dim)
		for i := range x {
			x[i] = centres[c][i] + rng.NormFloat64()
		}
		out[j] = Sample{X: x, Class: c}
	}
	return out
}

// sameBits reports the first position where two float slices differ in any
// bit, including the sign of a zero.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestTrainSoftmaxMatchesScalarReference(t *testing.T) {
	cases := []struct {
		classes, dim, n int
		tweak           func(*TrainConfig)
	}{
		{classes: 2, dim: 1, n: 64},
		{classes: 3, dim: 3, n: 200},
		{classes: 5, dim: 3, n: 97},
		{classes: 5, dim: 32, n: 300},
		{classes: 43, dim: 32, n: 1000},
		{classes: 43, dim: 1, n: 150},
		{classes: 3, dim: 32, n: 130, tweak: func(c *TrainConfig) { c.Momentum = 0 }},
		{classes: 43, dim: 3, n: 260, tweak: func(c *TrainConfig) { c.L2 = 0 }},
		{classes: 2, dim: 32, n: 10, tweak: func(c *TrainConfig) { c.BatchSize = 64 }},
	}
	for _, tc := range cases {
		cfg := DefaultTrainConfig()
		cfg.Epochs = 3
		if tc.tweak != nil {
			tc.tweak(&cfg)
		}
		name := fmt.Sprintf("classes=%d/dim=%d/n=%d/momentum=%g/l2=%g", tc.classes, tc.dim, tc.n, cfg.Momentum, cfg.L2)
		t.Run(name, func(t *testing.T) {
			samples := gaussianClasses(tc.n, tc.classes, tc.dim, uint64(tc.classes*100+tc.dim))
			var wantLoss, gotLoss []float64
			ref := cfg
			ref.Progress = func(_ int, loss float64) { wantLoss = append(wantLoss, loss) }
			want := referenceTrainSoftmax(samples, tc.classes, ref)
			cfg.Progress = func(_ int, loss float64) { gotLoss = append(gotLoss, loss) }
			got, err := TrainSoftmax(samples, tc.classes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(gotLoss, wantLoss); !ok {
				t.Fatalf("epoch loss %d differs: got %v, want %v", i, gotLoss, wantLoss)
			}
			for c := range want.W {
				if i, ok := sameBits(got.W[c], want.W[c]); !ok {
					t.Fatalf("W[%d][%d] = %v, reference %v", c, i, got.W[c][i], want.W[c][i])
				}
			}
		})
	}
}

func TestSoftmaxPredictScoresMatchReference(t *testing.T) {
	for _, classes := range []int{2, 3, 5, 43, 70, 130} {
		const dim = 7
		model, err := TrainSoftmax(gaussianClasses(400, classes, dim, 3), classes, DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(classes), 9))
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, dim)
			for i := range x {
				x[i] = 3 * rng.NormFloat64()
			}
			z := referenceLogits(model, x)
			pred, err := model.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if want := argmax(z); pred != want {
				t.Fatalf("classes=%d: Predict = %d, reference %d", classes, pred, want)
			}
			softmaxInPlace(z)
			scores, err := model.Scores(x)
			if err != nil {
				t.Fatal(err)
			}
			if i, ok := sameBits(scores, z); !ok {
				t.Fatalf("classes=%d: Scores[%d] = %v, reference %v", classes, i, scores[i], z[i])
			}
		}
	}
}

func TestSoftmaxAllocations(t *testing.T) {
	const classes, dim = 43, 32
	samples := gaussianClasses(512, classes, dim, 5)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	model, err := TrainSoftmax(samples, classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := samples[0].X
	if n := testing.AllocsPerRun(100, func() { _, _ = model.Predict(x) }); n != 0 {
		t.Errorf("Predict makes %v allocations, want 0", n)
	}
	train := func(s []Sample) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := TrainSoftmax(s, classes, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := train(samples[:256]), train(samples); small != large {
		t.Errorf("TrainSoftmax makes %v allocations on %d samples but %v on %d", small, 256, large, len(samples))
	}
}
