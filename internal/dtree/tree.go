// Package dtree implements the CART decision trees that uncertainty wrappers
// use as quality impact models: binary-outcome trees grown with the gini (or
// entropy) criterion, pruned so that every leaf keeps a minimum number of
// calibration samples, and calibrated with an injected one-sided binomial
// bound so each leaf carries a dependable uncertainty value. Trees stay fully
// transparent: rules can be exported as text or Graphviz DOT and gini feature
// importances are available.
package dtree

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Criterion selects the impurity measure used during growth.
type Criterion int

const (
	// Gini impurity, the paper's choice ("gini index as an approximation
	// for entropy").
	Gini Criterion = iota + 1
	// Entropy (information gain).
	Entropy
)

// String returns the criterion name.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Config controls tree growth.
type Config struct {
	// MaxDepth is the maximum tree depth; the paper uses 8. Zero means
	// depth 1 (a stump is depth 1; a bare root-leaf has depth 0).
	MaxDepth int
	// MinSplitSamples is the minimum number of samples a node needs to be
	// considered for splitting (default 2).
	MinSplitSamples int
	// MinLeafSamples is the minimum number of training samples either
	// child of a split must keep (default 1).
	MinLeafSamples int
	// Criterion is the impurity measure (default Gini).
	Criterion Criterion
	// MinGain is the minimum impurity decrease required to split
	// (default 0, i.e. any strictly positive gain).
	MinGain float64
}

func (c Config) withDefaults() Config {
	if c.MinSplitSamples < 2 {
		c.MinSplitSamples = 2
	}
	if c.MinLeafSamples < 1 {
		c.MinLeafSamples = 1
	}
	if c.Criterion == 0 {
		c.Criterion = Gini
	}
	return c
}

// Node is one node of a fitted tree. Leaves have Left == Right == nil.
type Node struct {
	// Feature is the index of the feature this node splits on (-1 for a
	// leaf).
	Feature int
	// Threshold routes x[Feature] <= Threshold to Left, otherwise Right.
	Threshold float64
	// Left and Right are the child nodes (nil for leaves).
	Left, Right *Node
	// Count and Events are the training-sample count and event (failure)
	// count that reached this node.
	Count, Events int
	// CalibCount and CalibEvents are the calibration-sample statistics
	// assigned by Calibrate.
	CalibCount, CalibEvents int
	// Value is the calibrated uncertainty bound of a leaf (NaN before
	// calibration).
	Value float64
	// LeafID is the dense index of a leaf after (re)numbering, -1 for
	// internal nodes.
	LeafID int
	// Depth is the node depth (root = 0).
	Depth int
	// gain is the impurity decrease achieved by this node's split,
	// weighted by the fraction of training samples reaching the node;
	// used for feature importances.
	gain float64
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Tree is a fitted CART tree for a binary failure event.
type Tree struct {
	root      *Node
	nFeatures int
	nLeaves   int
	cfg       Config
}

// Errors returned by the package.
var (
	ErrEmptyTrainingSet = errors.New("dtree: empty training set")
	ErrShapeMismatch    = errors.New("dtree: feature/label shape mismatch")
	ErrNotCalibrated    = errors.New("dtree: tree is not calibrated")
)

// Fit grows a CART tree on feature matrix x (rows are samples) and binary
// event labels y (true = failure).
func Fit(x [][]float64, y []bool, cfg Config) (*Tree, error) {
	if len(x) == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d labels", ErrShapeMismatch, len(x), len(y))
	}
	nf := len(x[0])
	if nf == 0 {
		return nil, fmt.Errorf("%w: zero features", ErrShapeMismatch)
	}
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrShapeMismatch, i, len(row), nf)
		}
	}
	cfg = cfg.withDefaults()
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	g := &grower{x: x, y: y, cfg: cfg}
	root := g.grow(idx, 0)
	t := &Tree{root: root, nFeatures: nf, cfg: cfg}
	t.renumberLeaves()
	return t, nil
}

// grower carries the shared growth state.
type grower struct {
	x   [][]float64
	y   []bool
	cfg Config
}

func (g *grower) grow(idx []int, depth int) *Node {
	count := len(idx)
	events := 0
	for _, i := range idx {
		if g.y[i] {
			events++
		}
	}
	n := &Node{
		Feature: -1,
		Count:   count,
		Events:  events,
		Value:   math.NaN(),
		Depth:   depth,
	}
	if depth >= g.cfg.MaxDepth || count < g.cfg.MinSplitSamples || events == 0 || events == count {
		return n
	}
	feat, thr, gain, ok := g.bestSplit(idx, events)
	if !ok || gain <= g.cfg.MinGain {
		return n
	}
	var left, right []int
	for _, i := range idx {
		if g.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.cfg.MinLeafSamples || len(right) < g.cfg.MinLeafSamples {
		return n
	}
	n.Feature = feat
	n.Threshold = thr
	n.gain = gain * float64(count)
	n.Left = g.grow(left, depth+1)
	n.Right = g.grow(right, depth+1)
	return n
}

// bestSplit scans every feature for the threshold with the largest impurity
// decrease. Thresholds are midpoints between consecutive distinct values.
func (g *grower) bestSplit(idx []int, events int) (feature int, threshold, gain float64, ok bool) {
	count := len(idx)
	parentImp := impurity(g.cfg.Criterion, events, count)
	type pair struct {
		v float64
		y bool
	}
	pairs := make([]pair, count)
	bestGain := 0.0
	for f := 0; f < len(g.x[idx[0]]); f++ {
		for j, i := range idx {
			pairs[j] = pair{v: g.x[i][f], y: g.y[i]}
		}
		// Ordered by < alone: cmp.Compare would also move NaN values, and
		// with them the splits of a tree grown on rows that hold NaN.
		slices.SortFunc(pairs, func(a, b pair) int {
			switch {
			case a.v < b.v:
				return -1
			case b.v < a.v:
				return 1
			}
			return 0
		})
		leftEvents := 0
		for j := 0; j < count-1; j++ {
			if pairs[j].y {
				leftEvents++
			}
			if pairs[j].v == pairs[j+1].v {
				continue
			}
			nl := j + 1
			nr := count - nl
			if nl < g.cfg.MinLeafSamples || nr < g.cfg.MinLeafSamples {
				continue
			}
			impL := impurity(g.cfg.Criterion, leftEvents, nl)
			impR := impurity(g.cfg.Criterion, events-leftEvents, nr)
			gn := parentImp - (float64(nl)*impL+float64(nr)*impR)/float64(count)
			if gn > bestGain {
				bestGain = gn
				feature = f
				threshold = (pairs[j].v + pairs[j+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, bestGain, ok
}

// impurity computes the binary impurity of a node with k events out of n.
func impurity(c Criterion, k, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(k) / float64(n)
	switch c {
	case Entropy:
		if p == 0 || p == 1 {
			return 0
		}
		return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	default: // Gini
		return 2 * p * (1 - p)
	}
}

// Leaf returns the leaf node that x falls into.
func (t *Tree) Leaf(x []float64) (*Node, error) {
	if len(x) != t.nFeatures {
		return nil, fmt.Errorf("%w: got %d features, want %d", ErrShapeMismatch, len(x), t.nFeatures)
	}
	n := t.root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n, nil
}

// Apply returns the dense LeafID that x falls into.
func (t *Tree) Apply(x []float64) (int, error) {
	n, err := t.Leaf(x)
	if err != nil {
		return 0, err
	}
	return n.LeafID, nil
}

// PredictValue returns the calibrated uncertainty of the leaf x falls into.
// The tree must have been calibrated first.
func (t *Tree) PredictValue(x []float64) (float64, error) {
	n, err := t.Leaf(x)
	if err != nil {
		return math.NaN(), err
	}
	if math.IsNaN(n.Value) {
		return math.NaN(), ErrNotCalibrated
	}
	return n.Value, nil
}

// TrainRate returns the raw training failure rate of the leaf x falls into
// (useful as an uncalibrated point estimate).
func (t *Tree) TrainRate(x []float64) (float64, error) {
	n, err := t.Leaf(x)
	if err != nil {
		return math.NaN(), err
	}
	if n.Count == 0 {
		return 0, nil
	}
	return float64(n.Events) / float64(n.Count), nil
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return t.nLeaves }

// NumFeatures returns the number of input features.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// Depth returns the maximum depth of the tree.
func (t *Tree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		if n.IsLeaf() {
			return n.Depth
		}
		return max(walk(n.Left), walk(n.Right))
	}
	return walk(t.root)
}

// Root exposes the root node for read-only inspection (export, tests).
func (t *Tree) Root() *Node { return t.root }

// Leaves returns all leaf nodes in LeafID order.
func (t *Tree) Leaves() []*Node {
	out := make([]*Node, 0, t.nLeaves)
	t.walkLeaves(t.root, func(n *Node) { out = append(out, n) })
	return out
}

func (t *Tree) walkLeaves(n *Node, fn func(*Node)) {
	if n.IsLeaf() {
		fn(n)
		return
	}
	t.walkLeaves(n.Left, fn)
	t.walkLeaves(n.Right, fn)
}

// renumberLeaves assigns dense LeafIDs in left-to-right order.
func (t *Tree) renumberLeaves() {
	id := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			n.LeafID = id
			id++
			return
		}
		n.LeafID = -1
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.root)
	t.nLeaves = id
}
