package ddm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// Classifier is what the uncertainty wrapper wraps: a black-box multi-class
// model exposing a hard decision and (optionally) class scores. The wrapper
// never relies on the scores being calibrated.
type Classifier interface {
	// Predict returns the most likely class for the feature vector.
	Predict(x []float64) (int, error)
	// Scores returns softmax class probabilities (model confidence, not a
	// dependable uncertainty).
	Scores(x []float64) ([]float64, error)
	// NumClasses returns the size of the output space.
	NumClasses() int
}

// TrainConfig controls minibatch SGD for the from-scratch classifiers.
type TrainConfig struct {
	// Epochs is the number of passes over the training data.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// LearningRate is the initial step size; it decays linearly to 10%
	// over the epochs.
	LearningRate float64
	// L2 is the weight-decay coefficient.
	L2 float64
	// Momentum is the classical momentum coefficient (0 disables).
	Momentum float64
	// Seed fixes shuffling and initialisation.
	Seed uint64
	// Progress, when non-nil, receives the mean training loss after each
	// epoch. It is excluded from serialisation.
	Progress func(epoch int, loss float64) `json:"-"`
}

// DefaultTrainConfig returns a configuration that trains the study's
// classifiers to convergence in a few seconds.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       6,
		BatchSize:    64,
		LearningRate: 0.12,
		L2:           1e-5,
		Momentum:     0.9,
		Seed:         5,
	}
}

// Validate checks the configuration.
func (c TrainConfig) Validate() error {
	switch {
	case c.Epochs <= 0:
		return errors.New("ddm: epochs must be positive")
	case c.BatchSize <= 0:
		return errors.New("ddm: batch size must be positive")
	case c.LearningRate <= 0:
		return errors.New("ddm: learning rate must be positive")
	case c.L2 < 0 || c.Momentum < 0 || c.Momentum >= 1:
		return errors.New("ddm: invalid regularisation or momentum")
	}
	return nil
}

// Softmax is a multinomial logistic-regression classifier: a linear map plus
// softmax, trained with minibatch SGD and cross-entropy loss.
type Softmax struct {
	// W is row-major [classes][dim+1]; the last column is the bias.
	W       [][]float64
	Dim     int
	Classes int
}

// NumClasses implements Classifier.
func (s *Softmax) NumClasses() int { return s.Classes }

// Scores implements Classifier.
func (s *Softmax) Scores(x []float64) ([]float64, error) {
	if len(x) != s.Dim {
		return nil, fmt.Errorf("ddm: input has %d features, model wants %d", len(x), s.Dim)
	}
	z := make([]float64, s.Classes)
	logitsInto(s.W, x, z)
	softmaxInPlace(z)
	return z, nil
}

// predictChunk is how many class scores Predict holds on its stack at once;
// a model with more classes is scored chunk by chunk.
const predictChunk = 64

// Predict implements Classifier. It makes no allocation.
func (s *Softmax) Predict(x []float64) (int, error) {
	if len(x) != s.Dim {
		return 0, fmt.Errorf("ddm: input has %d features, model wants %d", len(x), s.Dim)
	}
	var buf [predictChunk]float64
	best, top := 0, 0.0
	for c := 0; c < s.Classes; c += len(buf) {
		z := buf[:min(len(buf), s.Classes-c)]
		logitsInto(s.W[c:], x, z)
		if c == 0 {
			top = z[0]
		}
		// argmax's scan, first maximum wins, carried across chunks.
		for j, v := range z {
			if v > top {
				best, top = c+j, v
			}
		}
	}
	return best, nil
}

// TrainSoftmax fits a Softmax classifier on the samples.
func TrainSoftmax(samples []Sample, classes int, cfg TrainConfig) (*Softmax, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("ddm: empty training set")
	}
	if classes <= 1 {
		return nil, fmt.Errorf("ddm: need at least 2 classes, got %d", classes)
	}
	dim := len(samples[0].X)
	for i, s := range samples {
		if len(s.X) != dim {
			return nil, fmt.Errorf("ddm: sample %d has %d features, want %d", i, len(s.X), dim)
		}
		if s.Class < 0 || s.Class >= classes {
			return nil, fmt.Errorf("ddm: sample %d has class %d outside [0,%d)", i, s.Class, classes)
		}
	}
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
	// A minibatch is gathered feature-major: xt[i*batch+k] is feature i of
	// its k-th sample, with row dim held at 1 so the bias gradient is one
	// more product, and rt[c*batch+k] is that sample's residual p[c] minus
	// 1 for its true class.
	batch := min(cfg.BatchSize, len(samples))
	xt := make([]float64, (dim+1)*batch)
	rt := make([]float64, classes*batch)
	for k := range batch {
		xt[dim*batch+k] = 1
	}
	probs := make([]float64, classes)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LearningRate * (1 - 0.9*float64(epoch)/float64(cfg.Epochs))
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			rows := idx[start:min(start+cfg.BatchSize, len(idx))]
			// Gathering first lets the loads of all the batch's scattered
			// rows overlap; the passes below then find them in cache.
			for k, si := range rows {
				for i, v := range samples[si].X {
					xt[i*batch+k] = v
				}
			}
			for k, si := range rows {
				s := samples[si]
				logitsInto(model.W, s.X, probs)
				softmaxInPlace(probs)
				epochLoss += -math.Log(math.Max(probs[s.Class], 1e-12))
				probs[s.Class] -= 1
				for c, r := range probs {
					rt[c*batch+k] = r
				}
			}
			gradInto(grad, rt, xt, batch, len(rows))
			bs := float64(len(rows))
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
	return model, nil
}

// The kernels below reproduce the scalar trainer bit for bit: every score
// and every gradient sum performs the same additions in the same order,
// each written as acc += a*b so that a compiler fusing multiply-adds fuses
// both versions alike. They only block the work so that independent sums
// run side by side instead of one latency-bound chain at a time.

// quad returns the four class rows of the block that starts at c among n
// classes. A block that would run past the last class is moved back to end
// on it, overlapping the block before, whose overlapped sums it recomputes to
// the same bits; with fewer than four classes the last one fills the spare
// slots.
func quad(c, n int) (c0, c1, c2, c3 int) {
	c0 = max(0, min(c, n-4))
	return c0, min(c0+1, n-1), min(c0+2, n-1), min(c0+3, n-1)
}

// logitsInto writes into z the raw scores for x of the classes whose weight
// rows are w[:len(z)], four classes per pass over x.
//
//tauw:noescape
func logitsInto(w [][]float64, x, z []float64) {
	for c := 0; c < len(z); c += 4 {
		c0, c1, c2, c3 := quad(c, len(z))
		z[c0], z[c1], z[c2], z[c3] = logits4(w[c0], w[c1], w[c2], w[c3], x)
	}
}

// logits4 returns the scores for x of four weight rows: each starts from its
// row's bias (the last weight) and adds w[i]*x[i] in feature order.
//
//tauw:noescape
func logits4(w0, w1, w2, w3, x []float64) (z0, z1, z2, z3 float64) {
	n := len(x)
	z0, z1, z2, z3 = w0[n], w1[n], w2[n], w3[n]
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for i, xi := range x {
		z0 += w0[i] * xi
		z1 += w1[i] * xi
		z2 += w2[i] * xi
		z3 += w3[i] * xi
	}
	return z0, z1, z2, z3
}

// gradInto sets grad[c][i] to the sum over a minibatch's first m samples of
// rt[c*stride+k] * xt[i*stride+k], starting from zero and adding in sample
// order: the sums the scalar trainer builds one sample at a time. It works
// on blocks of four classes by two features, eight independent sums per pass
// over the batch.
//
//tauw:noescape
func gradInto(grad [][]float64, rt, xt []float64, stride, m int) {
	width := len(grad[0])
	for c := 0; c < len(grad); c += 4 {
		c0, c1, c2, c3 := quad(c, len(grad))
		r0 := rt[c0*stride:][:m]
		r1 := rt[c1*stride:][:m]
		r2 := rt[c2*stride:][:m]
		r3 := rt[c3*stride:][:m]
		g0, g1, g2, g3 := grad[c0], grad[c1], grad[c2], grad[c3]
		for i := 0; i < width; i += 2 {
			// Like quad's last block, a last feature pair overlaps the one
			// before it when the width is odd.
			i0 := min(i, width-2)
			i1 := i0 + 1
			x0 := xt[i0*stride:][:m]
			x1 := xt[i1*stride:][:m]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k, r := range r0 {
				a, b := x0[k], x1[k]
				s00 += r * a
				s01 += r * b
				s10 += r1[k] * a
				s11 += r1[k] * b
				s20 += r2[k] * a
				s21 += r2[k] * b
				s30 += r3[k] * a
				s31 += r3[k] * b
			}
			g0[i0], g0[i1] = s00, s01
			g1[i0], g1[i1] = s10, s11
			g2[i0], g2[i1] = s20, s21
			g3[i0], g3[i1] = s30, s31
		}
	}
}

// MarshalJSON serialises the model.
func (s *Softmax) MarshalJSON() ([]byte, error) {
	type alias Softmax
	return json.Marshal((*alias)(s))
}

// LoadSoftmax deserialises a model produced by MarshalJSON.
func LoadSoftmax(data []byte) (*Softmax, error) {
	var s Softmax
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("ddm: decode softmax: %w", err)
	}
	if s.Classes < 2 || s.Dim < 1 {
		return nil, fmt.Errorf("ddm: corrupt softmax: %d classes over %d features, need at least 2 classes and 1 feature", s.Classes, s.Dim)
	}
	if s.Classes != len(s.W) {
		return nil, fmt.Errorf("ddm: corrupt softmax: %d classes but %d weight rows", s.Classes, len(s.W))
	}
	for c, row := range s.W {
		if len(row) != s.Dim+1 {
			return nil, fmt.Errorf("ddm: corrupt softmax: row %d has %d weights, want %d", c, len(row), s.Dim+1)
		}
	}
	return &s, nil
}

func softmaxInPlace(z []float64) {
	maxZ := z[0]
	for _, v := range z[1:] {
		if v > maxZ {
			maxZ = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - maxZ)
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
}

func argmax(z []float64) int {
	best := 0
	for i, v := range z[1:] {
		if v > z[best] {
			best = i + 1
		}
	}
	return best
}
