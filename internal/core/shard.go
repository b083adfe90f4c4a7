package core

import (
	"fmt"
	"sync"
	"unsafe"
)

// DefaultShards is the shard count used when a pool is created without an
// explicit override: enough to keep lock contention negligible on common
// core counts without wasting memory on tiny deployments.
const DefaultShards = 32

// shardPad is the stride shards are padded to. Two cache lines, not one:
// slice backing arrays are not guaranteed 64-byte alignment, so a 64-byte
// shard can still straddle a line boundary and share both halves with its
// neighbours, and adjacent-line prefetchers pull lines in 128-byte pairs
// anyway. At a 128-byte stride the hot head of a shard (mutex + map header)
// can never land on the same line — or the same prefetch pair — as another
// shard's, whatever the array's base alignment.
const shardPad = 128

// trackShardState is the payload of one track shard: one slice of the
// pool's track map under its own lock.
type trackShardState struct {
	//tauw:notrace
	mu     sync.Mutex
	tracks map[int]*pooledWrapper
}

// trackShard pads the state to the next multiple of the shard stride; the
// pad width is computed from the state's size, so growing the state keeps
// the struct stride-aligned automatically (TestShardPadding pins the
// invariant). The expression always pads by at least one byte, so a state
// that is already an exact stride multiple carries one extra stride — a
// non-issue at the current 16-byte state.
//
//tauw:pad=128
type trackShard struct {
	trackShardState
	_ [shardPad - unsafe.Sizeof(trackShardState{})%shardPad]byte
}

// normShards validates and normalises a shard-count request: 0 means
// DefaultShards, and any positive value is rounded up to the next power of
// two so shard selection stays a mask instead of a modulo.
func normShards(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("core: shard count %d must be >= 0", n)
	}
	if n == 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p, nil
}

// fibMul is 2^64/φ, the Fibonacci-hashing multiplier: one multiply spreads
// sequential track ids (the common allocation pattern) across the top bits,
// from which the shard index is taken. Chosen over a full splitmix64
// finaliser because shard selection sits on the per-step path, where the
// sharded pool must not cost more than the single-mutex design it replaced
// even at GOMAXPROCS=1 (one imul + one shift versus two imuls and three
// xor-shifts).
const fibMul = 0x9e3779b97f4a7c15

// shardIndex maps a track id to the index of its owning shard (Fibonacci
// hashing: top shardBits bits of id*fibMul). StepBatch's counting sort uses
// the raw index to group items without touching the shards themselves.
//
// shardShift is 64-log2(nshards); for a single shard it is 64, and a Go
// shift by >= 64 yields 0 — exactly the only valid index.
func (p *WrapperPool) shardIndex(trackID int) uint64 {
	return (uint64(trackID) * fibMul) >> p.shardShift
}

// trackShardFor selects the shard owning a track id. Shard selection is
// lock-free: the shard slice is immutable after construction.
func (p *WrapperPool) trackShardFor(trackID int) *trackShard {
	return &p.shards[p.shardIndex(trackID)]
}
