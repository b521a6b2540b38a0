package stm

import (
	"math"
	"sync"
	"sync/atomic"
)

// snapshotRegistry tracks the start timestamps of live snapshot-semantics
// transactions so that writers know how much version history they must
// preserve on each variable's chain.
//
// Registration is lock-free in the common case. The registry holds
// slotsPerShard registration slots per engine shard, each an atomic
// word on its own cache line holding either slotFree or the published
// lower bound of one live snapshot's read timestamp. A snapshot begin
// claims a free slot with one CAS (free -> bound), starting its probe at
// a mixing hash of the attempt id so concurrent begins spread over
// distinct lines; a snapshot finish stores slotFree back. No mutex, no
// map, no rescan.
//
// Only when every slot is taken — a long SnapshotAllCtx checkpoint walk
// pinning one, many goroutines parked inside snapshot bodies — does a
// begin fall back to the overflow registry: per-shard mutex-guarded
// id->timestamp maps, sharded by a mixing hash of the id (shardOf), each
// caching its own minimum in an atomic that its mutex maintains.
//
// Writers never take any mutex: minActive folds every slot and every
// overflow shard's cached minimum. Both counts scale with the engine's
// shard count, so the fold stays O(shards).
//
// The register-then-sample argument holds slot by slot (and, for the
// overflow path, shard by shard): a slot or a cached overflow minimum
// never exceeds the bound its registrant published, the bound never
// exceeds that registrant's read timestamp, and minActive reads each
// word atomically — so its result never exceeds the bound of any
// snapshot whose publication it observed, and the snapshots whose
// publication it missed are safe for the reason registerSampling gives.
type snapshotRegistry struct {
	slots    []snapSlot
	slotMask uint64

	overflow []snapShard
	mask     uint64
}

// slotsPerShard is the number of lock-free registration slots per
// engine shard. Shards default to GOMAXPROCS, which bounds how many
// snapshot attempts can be running at once; the spare slots absorb
// attempts that are preempted or parked mid-body before the overflow
// path is needed.
const slotsPerShard = 4

// slotFree marks an unclaimed slot. It is also minActive's "no live
// snapshot" value, so a free slot folds away without a branch.
const slotFree = math.MaxUint64

// snapSlot is one lock-free registration slot, alone on its cache line
// so that concurrent claims and releases of different slots never
// false-share.
type snapSlot struct {
	ts atomic.Uint64 // slotFree, or a live snapshot's published bound
	_  [cacheLine - 8]byte
}

// snapShard is one overflow shard.
type snapShard struct {
	mu     sync.Mutex
	active map[uint64]uint64 // txn id -> start timestamp
	min    atomic.Uint64     // cached minimum of active, or slotFree
	_      [cacheLine - 24]byte
}

// init sizes the slot and overflow arrays; shards must be a power of
// two.
func (r *snapshotRegistry) init(shards int) {
	r.slots = make([]snapSlot, shards*slotsPerShard)
	for i := range r.slots {
		r.slots[i].ts.Store(slotFree)
	}
	r.slotMask = uint64(len(r.slots) - 1)
	r.overflow = make([]snapShard, shards)
	for i := range r.overflow {
		r.overflow[i].active = make(map[uint64]uint64, 4)
		r.overflow[i].min.Store(slotFree)
	}
	r.mask = uint64(shards - 1)
}

// registerSampling records transaction id as a live snapshot reader and
// returns the attempt's read timestamp together with the slot it
// claimed (-1 for the overflow registry; pass it back to unregister).
//
// Two clock samples bracket the registration: the first becomes the
// published conservative lower bound, and the second — taken strictly
// AFTER the bound is stored, by the slot CAS or under the overflow
// shard's mutex — becomes rv. The bracketing is the register-then-sample
// invariant minActive's trimming contract needs, and the order is
// load-bearing: a writer whose minActive fold missed our bound must have
// loaded our slot (or shard minimum) before the bound was stored, hence
// ticked its commit timestamp before rv was sampled (atomics are totally
// ordered), so wv <= rv and its new version is itself visible to the
// snapshot — the reader never needs anything that writer trimmed.
// Sampling rv BEFORE the store (e.g. reusing the bound as rv to save a
// clock load) is unsound: a writer could then tick wv > rv, miss the
// bound, and drop the very version the snapshot resolves to. A bound
// sampled some time before a successful CAS is merely more conservative.
func (r *snapshotRegistry) registerSampling(id uint64, clock *Clock) (rv uint64, slot int) {
	start := shardOf(id, r.slotMask)
	for i := range uint64(len(r.slots)) {
		s := (start + i) & r.slotMask
		ts := &r.slots[s].ts
		if ts.Load() == slotFree && ts.CompareAndSwap(slotFree, clock.Now()) {
			return clock.Now(), int(s)
		}
	}
	sh := &r.overflow[shardOf(id, r.mask)]
	sh.mu.Lock()
	pre := clock.Now()
	sh.active[id] = pre
	if pre < sh.min.Load() {
		sh.min.Store(pre)
	}
	rv = clock.Now()
	sh.mu.Unlock()
	return rv, -1
}

// unregister releases the registration registerSampling made for
// transaction id in slot. A slot is simply freed; an overflow entry is
// deleted and its shard's cached minimum recomputed.
func (r *snapshotRegistry) unregister(id uint64, slot int) {
	if slot >= 0 {
		r.slots[slot].ts.Store(slotFree)
		return
	}
	sh := &r.overflow[shardOf(id, r.mask)]
	sh.mu.Lock()
	delete(sh.active, id)
	m := uint64(slotFree)
	for _, ts := range sh.active {
		if ts < m {
			m = ts
		}
	}
	sh.min.Store(m)
	sh.mu.Unlock()
}

// minActive returns the smallest start timestamp of any live snapshot
// transaction, or math.MaxUint64 if none — writers keep the newest
// version with ver <= minActive and may trim everything older. Lock-free:
// it folds the slots and the overflow shards' atomic minima.
func (r *snapshotRegistry) minActive() uint64 {
	m := uint64(slotFree)
	for i := range r.slots {
		m = min(m, r.slots[i].ts.Load())
	}
	for i := range r.overflow {
		m = min(m, r.overflow[i].min.Load())
	}
	return m
}

// activeCount returns the number of live snapshot transactions, on
// both paths.
func (r *snapshotRegistry) activeCount() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].ts.Load() != slotFree {
			n++
		}
	}
	for i := range r.overflow {
		sh := &r.overflow[i]
		sh.mu.Lock()
		n += len(sh.active)
		sh.mu.Unlock()
	}
	return n
}
