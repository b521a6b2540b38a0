package stm

import (
	"fmt"
	"sync/atomic"
)

// statCounter names one engine event counter. Hot paths tally events
// in their attempt's private attemptCounts, which finish flushes to one
// stripe (Stats.flush), so the enum is the per-event half of both the
// tally and the striped layout below.
type statCounter uint8

const (
	statStarts        statCounter = iota // transaction attempts begun
	statCommits                          // successful commits
	statAborts                           // aborts of any kind
	statReadAborts                       // aborts during read validation/extension
	statLockAborts                       // aborts acquiring commit-time locks
	statValidateAbort                    // aborts during commit-time validation
	statKills                            // aborts requested by contention managers
	statExtensions                       // successful read-timestamp extensions
	statElasticCuts                      // elastic prefix cuts (the paper's γ windows sliding)
	statSnapshotReads                    // reads resolved from non-head versions
	statIrrevocables                     // transactions run irrevocably
	statVarsAllocated                    // NewVar calls
	statReads                            // transactional reads
	statWrites                           // transactional writes

	numStatCounters
)

// semCounter names one per-semantics event counter. The engine keeps a
// (semantics × event) matrix per stripe so a polymorphic workload can be
// broken down by the paper's parameter p: how many def transactions
// aborted while the snapshot readers all committed is precisely the
// schedule-acceptance gap the paper claims, made observable.
type semCounter uint8

const (
	semStarts  semCounter = iota // attempts begun under this semantics
	semCommits                   // commits under this semantics
	semAborts                    // aborts under this semantics

	numSemCounters
)

// numSemClasses is the number of semantics classes tracked (Def, Weak,
// Snapshot, Irrevocable). Attribution is by the transaction's root
// parameter p — the semantics passed to start(p) — not by the effective
// semantics of nested scopes.
const numSemClasses = 4

// statsStripe is one shard's worth of counters, padded out to a
// cache-line multiple so adjacent stripes never false-share. (The
// counter block is (14+4×3)×8 = 208 bytes; the pad rounds it to 256.)
type statsStripe struct {
	c   [numStatCounters]atomic.Uint64
	sem [numSemClasses][numSemCounters]atomic.Uint64
	_   [cacheLine - ((int(numStatCounters)+numSemClasses*int(numSemCounters))*8)%cacheLine]byte
}

// attemptCounts is one attempt's private tally: the events of a single
// transaction attempt, counted with plain increments by the goroutine
// that owns the attempt. The hot paths (every Read and Write) touch
// only this, never shared memory; finish hands the tally to Stats.flush
// exactly once per attempt.
type attemptCounts struct {
	c   [numStatCounters]uint64
	sem [numSemCounters]uint64
}

// Stats holds the engine-wide event counters, striped across the
// engine's shard count. Counting is per attempt: a transaction attempt
// tallies its events privately and, when it ends — commit, abort, kill,
// cancellation or misuse error alike, since every one of those paths
// goes through Txn.finish — adds each nonzero count to one stripe with
// one atomic add. Each event therefore lands on exactly one stripe
// exactly once, and Snapshot, which sums every stripe, is exact for
// every counter at quiescence. While transactions are in flight it lags
// by at most the running attempts: an attempt's events, its start
// included, become visible together when it ends. (So mid-flight,
// counters are only approximately consistent with each other.)
//
// Two edge cases are fixed by the run loop and the manual API:
//
//   - An attempt whose body panics inside a Run-family call is aborted
//     by the run loop while the panic unwinds: it counts as one start
//     and one abort under its semantics, plus the reads and writes it
//     made, and releases its locks and registrations like any abort.
//   - A Begin handle that is dropped without Commit or Abort never ends,
//     so none of its events are ever counted.
//
// VarsAllocated is not per attempt: NewVar adds to a stripe directly.
type Stats struct {
	stripes []statsStripe
	mask    uint32
}

// init sizes the stripe array; shards must be a power of two.
func (s *Stats) init(shards int) {
	s.stripes = make([]statsStripe, shards)
	s.mask = uint32(shards - 1)
}

// add bumps counter c on the given stripe.
func (s *Stats) add(stripe uint32, c statCounter) {
	s.stripes[stripe&s.mask].c[c].Add(1)
}

// flush adds an attempt's tally, attributed to semantics class p, to
// the given stripe — one atomic add per nonzero counter — and zeroes
// the tally for the next attempt.
func (s *Stats) flush(stripe uint32, p Semantics, a *attemptCounts) {
	st := &s.stripes[stripe&s.mask]
	for c, n := range a.c {
		if n != 0 {
			st.c[c].Add(n)
		}
	}
	for c, n := range a.sem {
		if n != 0 {
			st.sem[p][c].Add(n)
		}
	}
	*a = attemptCounts{}
}

// sum aggregates counter c across every stripe.
func (s *Stats) sum(c statCounter) uint64 {
	var t uint64
	for i := range s.stripes {
		t += s.stripes[i].c[c].Load()
	}
	return t
}

// sumSem aggregates per-semantics counter c of class p across every
// stripe.
func (s *Stats) sumSem(p Semantics, c semCounter) uint64 {
	var t uint64
	for i := range s.stripes {
		t += s.stripes[i].sem[p][c].Load()
	}
	return t
}

// reset zeroes every counter on every stripe.
func (s *Stats) reset() {
	for i := range s.stripes {
		for c := range s.stripes[i].c {
			s.stripes[i].c[c].Store(0)
		}
		for p := range s.stripes[i].sem {
			for c := range s.stripes[i].sem[p] {
				s.stripes[i].sem[p][c].Store(0)
			}
		}
	}
}

// Snapshot aggregates the stripes into a plain struct for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	var per [numSemClasses]SemStats
	for p := Semantics(0); p < numSemClasses; p++ {
		per[p] = SemStats{
			Starts:  s.sumSem(p, semStarts),
			Commits: s.sumSem(p, semCommits),
			Aborts:  s.sumSem(p, semAborts),
		}
	}
	return StatsSnapshot{
		PerSemantics:  per,
		Starts:        s.sum(statStarts),
		Commits:       s.sum(statCommits),
		Aborts:        s.sum(statAborts),
		ReadAborts:    s.sum(statReadAborts),
		LockAborts:    s.sum(statLockAborts),
		ValidateAbort: s.sum(statValidateAbort),
		Kills:         s.sum(statKills),
		Extensions:    s.sum(statExtensions),
		ElasticCuts:   s.sum(statElasticCuts),
		SnapshotReads: s.sum(statSnapshotReads),
		Irrevocables:  s.sum(statIrrevocables),
		VarsAllocated: s.sum(statVarsAllocated),
		Reads:         s.sum(statReads),
		Writes:        s.sum(statWrites),
	}
}

// SemStats is the per-semantics-class slice of a StatsSnapshot: the
// attempts, commits, and aborts of transactions whose start(p) parameter
// was that class.
type SemStats struct {
	Starts, Commits, Aborts uint64
}

// AbortRate returns aborts per attempt for this class, in [0,1].
func (s SemStats) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Starts)
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Starts, Commits, Aborts               uint64
	ReadAborts, LockAborts, ValidateAbort uint64
	Kills, Extensions, ElasticCuts        uint64
	SnapshotReads, Irrevocables           uint64
	VarsAllocated, Reads, Writes          uint64

	// PerSemantics breaks starts/commits/aborts down by the
	// transaction's semantic parameter p, indexed by Semantics value
	// (Def, Weak, Snapshot, Irrevocable). Each class's counters obey the
	// same exactness as the global ones, and at quiescence the classes
	// sum to the global Starts/Commits/Aborts.
	PerSemantics [numSemClasses]SemStats
}

// Sem returns the per-semantics slice for class p (zero value for an
// out-of-range p).
func (s StatsSnapshot) Sem(p Semantics) SemStats {
	if int(p) >= len(s.PerSemantics) {
		return SemStats{}
	}
	return s.PerSemantics[p]
}

// AbortRate returns aborts per attempt, in [0,1].
func (s StatsSnapshot) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Starts)
}

// PerSemString renders the non-empty per-semantics classes as one
// diagnostic line.
func (s StatsSnapshot) PerSemString() string {
	out := ""
	for p := Semantics(0); p < numSemClasses; p++ {
		c := s.PerSemantics[p]
		if c.Starts == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%v{starts=%d commits=%d aborts=%d rate=%.3f}",
			p, c.Starts, c.Commits, c.Aborts, c.AbortRate())
	}
	if out == "" {
		return "(no transactions)"
	}
	return out
}

// String renders the snapshot as a single diagnostic line.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf(
		"starts=%d commits=%d aborts=%d (read=%d lock=%d val=%d kill=%d) ext=%d cuts=%d snapreads=%d irrevocable=%d reads=%d writes=%d abort-rate=%.3f",
		s.Starts, s.Commits, s.Aborts, s.ReadAborts, s.LockAborts,
		s.ValidateAbort, s.Kills, s.Extensions, s.ElasticCuts,
		s.SnapshotReads, s.Irrevocables, s.Reads, s.Writes, s.AbortRate())
}
