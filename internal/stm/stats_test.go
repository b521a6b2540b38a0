package stm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsExactUnderStriping is the exactness cross-check for the
// striped counters: every worker counts its own Read/Write calls and
// successful commits (including calls made on attempts that later
// aborted — the engine counts per call, not per surviving attempt), and
// the aggregated Snapshot must match the sums exactly. Run with -race.
func TestStatsExactUnderStriping(t *testing.T) {
	for _, shards := range []int{1, 4, 0} { // 0 = GOMAXPROCS default
		e := NewEngine(Config{Shards: shards})
		const workers = 8
		const txnsPerWorker = 300
		vars := make([]*Var, 16)
		for i := range vars {
			vars[i] = e.NewVar(0)
		}

		type tally struct {
			reads, writes, commits uint64
		}
		tallies := make([]tally, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tl := &tallies[w]
				r := uint64(w)*0x9E3779B97F4A7C15 + 1
				for n := 0; n < txnsPerWorker; n++ {
					r = r*6364136223846793005 + 1442695040888963407
					i, j := int(r>>33)%len(vars), int(r>>45)%len(vars)
					err := e.Run(SemanticsDef, func(tx *Txn) error {
						// The engine counts every Read/Write call it
						// admits, including calls that then lose a
						// conflict — so the tally counts calls, not
						// successes. (With the default polite manager
						// nothing is ever killed, so no call is
						// rejected before being counted.)
						v, err := tx.Read(vars[i])
						tl.reads++
						if err != nil {
							return err
						}
						err = tx.Write(vars[j], v.(int)+1)
						tl.writes++
						return err
					})
					if err != nil {
						t.Errorf("unexpected run error: %v", err)
						return
					}
					tl.commits++
				}
			}(w)
		}
		wg.Wait()

		var want tally
		for w := range tallies {
			want.reads += tallies[w].reads
			want.writes += tallies[w].writes
			want.commits += tallies[w].commits
		}
		s := e.Stats()
		if s.Commits != want.commits {
			t.Errorf("shards=%d: Commits = %d, want exactly %d", shards, s.Commits, want.commits)
		}
		if s.Reads != want.reads {
			t.Errorf("shards=%d: Reads = %d, want exactly %d", shards, s.Reads, want.reads)
		}
		if s.Writes != want.writes {
			t.Errorf("shards=%d: Writes = %d, want exactly %d", shards, s.Writes, want.writes)
		}
		// Every attempt ends in exactly one commit or one abort.
		if s.Starts != s.Commits+s.Aborts {
			t.Errorf("shards=%d: Starts = %d, want Commits+Aborts = %d",
				shards, s.Starts, s.Commits+s.Aborts)
		}
		if s.VarsAllocated != uint64(len(vars)) {
			t.Errorf("shards=%d: VarsAllocated = %d, want %d", shards, s.VarsAllocated, len(vars))
		}
	}
}

// TestStatsIdentitiesUnderContention drives heavy contention on one
// variable (with the suicide manager so aborts are plentiful) and
// checks the abort-side identities plus the exact commit count against
// the per-worker success tally.
func TestStatsIdentitiesUnderContention(t *testing.T) {
	e := NewEngine(Config{Shards: 4, DefaultCM: NewSuicide()})
	hot := e.NewVar(0)
	const workers = 8
	const txnsPerWorker = 200
	var wg sync.WaitGroup
	var commitTotal [workers]uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < txnsPerWorker; n++ {
				err := e.Run(SemanticsDef, func(tx *Txn) error {
					v, err := tx.Read(hot)
					if err != nil {
						return err
					}
					runtime.Gosched() // widen the conflict window
					return tx.Write(hot, v.(int)+1)
				})
				if err == nil {
					commitTotal[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var commits uint64
	for w := range commitTotal {
		commits += commitTotal[w]
	}
	s := e.Stats()
	if s.Commits != commits {
		t.Errorf("Commits = %d, want exactly %d (per-worker sum)", s.Commits, commits)
	}
	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("Starts = %d, want Commits+Aborts = %d", s.Starts, s.Commits+s.Aborts)
	}
	if s.Aborts < s.ReadAborts+s.LockAborts+s.ValidateAbort {
		t.Errorf("Aborts = %d < categorized aborts %d", s.Aborts,
			s.ReadAborts+s.LockAborts+s.ValidateAbort)
	}
	if got := hot.LoadDirect().(int); uint64(got) != commits {
		t.Errorf("hot counter = %d, want %d (one increment per commit)", got, commits)
	}
}

// TestShardConfigResolution pins the knob semantics: non-power-of-two
// requests round up, oversize requests clamp, and zero derives from
// GOMAXPROCS.
func TestShardConfigResolution(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {1000, 256},
	}
	for _, c := range cases {
		if e := NewEngine(Config{Shards: c.in}); e.Shards() != c.want {
			t.Errorf("Shards=%d resolved to %d, want %d", c.in, e.Shards(), c.want)
		}
	}
	def := NewDefaultEngine().Shards()
	if def < 1 || def&(def-1) != 0 {
		t.Errorf("default shard count %d is not a positive power of two", def)
	}
	want := 1
	for want < min(runtime.GOMAXPROCS(0), maxShards) {
		want <<= 1
	}
	if def != want {
		t.Errorf("default shard count = %d, want %d (from GOMAXPROCS)", def, want)
	}
}

// TestResetStatsZeroesEveryStripe ensures reset reaches all stripes,
// not just stripe zero.
func TestResetStatsZeroesEveryStripe(t *testing.T) {
	e := NewEngine(Config{Shards: 8})
	for i := 0; i < 64; i++ {
		v := e.NewVar(i)
		if err := e.Run(SemanticsDef, func(tx *Txn) error { return tx.Write(v, i+1) }); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Commits == 0 || s.VarsAllocated == 0 {
		t.Fatal("expected nonzero counters before reset")
	}
	e.ResetStats()
	if s := e.Stats(); s != (StatsSnapshot{}) {
		t.Fatalf("ResetStats left residue: %+v", s)
	}
}

// TestStoreDirectDetectsRacingLocker pins the CAS-guarded publish: a
// StoreDirect against a variable whose lock word is held must panic
// loudly instead of corrupting the version chain.
func TestStoreDirectDetectsRacingLocker(t *testing.T) {
	e := NewDefaultEngine()
	v := e.NewVar(1)
	if _, ok := v.tryLock(42); !ok {
		t.Fatal("setup: could not lock variable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StoreDirect against a locked variable did not panic")
		}
	}()
	v.StoreDirect(2)
}

// TestTxnIDBlocksUniqueAndNonzero drives many transactions concurrently
// and checks that block-allocated attempt ids never collide and never
// produce the reserved id 0 (the StoreDirect sentinel owner).
func TestTxnIDBlocksUniqueAndNonzero(t *testing.T) {
	e := NewDefaultEngine()
	const workers = 8
	const perWorker = 500
	idsCh := make(chan []uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, 0, perWorker)
			for n := 0; n < perWorker; n++ {
				tx := e.Begin(SemanticsDef)
				ids = append(ids, tx.ID())
				if tx.Birth() == 0 {
					t.Error("birth id 0")
				}
				tx.Abort()
			}
			idsCh <- ids
		}()
	}
	wg.Wait()
	close(idsCh)
	seen := make(map[uint64]bool)
	for ids := range idsCh {
		for _, id := range ids {
			if id == 0 {
				t.Fatal("attempt id 0 issued (reserved for StoreDirect)")
			}
			if seen[id] {
				t.Fatalf("attempt id %d issued twice", id)
			}
			seen[id] = true
		}
	}
}

// TestVarIDsUniqueAcrossStripes checks the striped var-id wells:
// concurrent NewVar calls must yield distinct, nonzero ids.
func TestVarIDsUniqueAcrossStripes(t *testing.T) {
	e := NewEngine(Config{Shards: 8})
	const workers = 8
	const perWorker = 500
	idsCh := make(chan []uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, 0, perWorker)
			for n := 0; n < perWorker; n++ {
				ids = append(ids, e.NewVar(n).ID())
			}
			idsCh <- ids
		}()
	}
	wg.Wait()
	close(idsCh)
	seen := make(map[uint64]bool)
	for ids := range idsCh {
		for _, id := range ids {
			if id == 0 || seen[id] {
				t.Fatalf("var id %d duplicated or zero", id)
			}
			seen[id] = true
		}
	}
}

// TestShardSelectionSpreadsBlockIDs is the regression test for a
// sharding pitfall: attempt ids are block-allocated (txnIDBlock apart),
// so every transaction's FIRST attempt id is congruent mod the block
// size — masking raw low bits would send all of them to one shard.
// shardOf must spread an arithmetic progression of stride txnIDBlock
// across all shards.
func TestShardSelectionSpreadsBlockIDs(t *testing.T) {
	const shards = 8
	const mask = shards - 1
	counts := make([]int, shards)
	for k := uint64(0); k < 1000; k++ {
		counts[shardOf(k*txnIDBlock+1, mask)]++ // first-attempt ids: 1, 65, 129, ...
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d never selected across 1000 first-attempt ids: %v", s, counts)
		}
		if n > 1000/shards*3 {
			t.Errorf("shard %d grossly overloaded (%d of 1000): %v", s, n, counts)
		}
	}
}

// killCounter is an Observer counting the attempts that ended in a
// contention-manager kill.
type killCounter struct{ kills atomic.Uint64 }

func (k *killCounter) OnCommit(TxnEvent) {}
func (k *killCounter) OnWait(TxnEvent)   {}
func (k *killCounter) OnAbort(ev TxnEvent) {
	if errors.Is(ev.Err, ErrKilled) {
		k.kills.Add(1)
	}
}

// TestStatsExactPerAttempt is the exactness check for per-attempt
// counting: concurrent workers end attempts in every way the engine
// knows — commits under all four semantics, conflict aborts, kills
// (deterministic ones by the karma and timestamp managers, racing ones
// by the aggressive manager), context cancellation before and during an
// attempt, manual Begin/Abort and Begin/Commit, a snapshot write
// rejected as misuse, and bodies that panic — while tallying, on the
// caller side, each attempt a body sees and each Read and Write it
// calls. At quiescence the per-semantics starts, commits and aborts,
// the reads and writes, and the kills must all match exactly. Run with
// -race. (Racing karma managers stay out: the karma field's documented
// plain read would be reported by the race detector.)
func TestStatsExactPerAttempt(t *testing.T) {
	obs := &killCounter{}
	e := NewEngine(Config{Shards: 2, Observer: obs})
	hot := make([]*Var, 4)
	for i := range hot {
		hot[i] = e.NewVar(0)
	}
	const workers, iters = 4, 660
	// Each worker's kill scenario runs on its own pair of variables, so
	// nothing but the victim's lock stands in the attacker's way.
	private, pad := make([]*Var, workers), make([]*Var, workers)
	for i := range private {
		private[i], pad[i] = e.NewVar(0), e.NewVar(0)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	type tally struct {
		starts, commits, aborts [numSemClasses]uint64
		reads, writes, kills    uint64
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tl := &tallies[w]
			read := func(tx *Txn, v *Var) (any, error) {
				tl.reads++
				return tx.Read(v)
			}
			write := func(tx *Txn, v *Var, x any) error {
				tl.writes++
				return tx.Write(v, x)
			}
			// run makes one Run-family call through call, tallying every
			// attempt the body sees: all abort but a committing last one.
			run := func(sem Semantics, call func(func(*Txn) error) error, body func(*Txn) error) error {
				var n uint64
				err := call(func(tx *Txn) error { n++; return body(tx) })
				tl.starts[sem] += n
				if err == nil {
					tl.commits[sem]++
					n--
				}
				tl.aborts[sem] += n
				return err
			}
			plain := func(sem Semantics) func(func(*Txn) error) error {
				return func(body func(*Txn) error) error { return e.Run(sem, body) }
			}
			withCM := func(cm CMFactory) func(func(*Txn) error) error {
				return func(body func(*Txn) error) error { return e.RunWith(SemanticsDef, cm, body) }
			}
			withCtx := func(ctx context.Context) func(func(*Txn) error) error {
				return func(body func(*Txn) error) error { return e.RunCtx(ctx, SemanticsDef, body) }
			}
			r := uint64(w)*0x9E3779B97F4A7C15 + 1
			for n := 0; n < iters; n++ {
				r = r*6364136223846793005 + 1442695040888963407
				i, j := int(r>>33)%len(hot), int(r>>45)%len(hot)
				incr := func(tx *Txn) error {
					v, err := read(tx, hot[i])
					if err != nil {
						return err
					}
					runtime.Gosched() // widen the conflict window
					return write(tx, hot[j], v.(int)+1)
				}
				var err error
				switch n % 11 {
				case 0:
					err = run(SemanticsDef, plain(SemanticsDef), incr)
				case 1:
					err = run(SemanticsDef, withCM(NewTimestamp()), incr)
				case 2:
					err = run(SemanticsDef, withCM(NewAggressive()), incr)
				case 3:
					err = run(SemanticsWeak, plain(SemanticsWeak), func(tx *Txn) error {
						for _, v := range hot[:3] {
							if _, err := read(tx, v); err != nil {
								return err
							}
						}
						return incr(tx)
					})
				case 4:
					err = run(SemanticsSnapshot, plain(SemanticsSnapshot), func(tx *Txn) error {
						if _, err := read(tx, hot[i]); err != nil {
							return err
						}
						if n%20 == 4 {
							return write(tx, hot[j], 0) // misuse: rejected, aborts
						}
						_, err := read(tx, hot[j])
						return err
					})
					if n%20 == 4 && errors.Is(err, ErrSnapshotWrite) {
						err = nil
					}
				case 5:
					err = run(SemanticsIrrevocable, plain(SemanticsIrrevocable), incr)
				case 6:
					err = run(SemanticsDef, withCtx(cancelled), incr)
					if errors.Is(err, ErrCancelled) {
						err = nil
					}
				case 7:
					ctx, cancelNow := context.WithCancel(context.Background())
					err = run(SemanticsDef, withCtx(ctx), func(tx *Txn) error {
						cancelNow()
						return incr(tx)
					})
					if errors.Is(err, ErrCancelled) {
						err = nil
					}
				case 8:
					tx := e.Begin(SemanticsDef)
					tl.starts[SemanticsDef]++
					_, _ = read(tx, hot[i])
					tx.Abort()
					tl.aborts[SemanticsDef]++
					tx = e.Begin(SemanticsSnapshot)
					tl.starts[SemanticsSnapshot]++
					if _, err = read(tx, hot[j]); err == nil {
						err = tx.Commit()
					}
					tl.commits[SemanticsSnapshot]++
				case 9:
					// A panicking body: every attempt it sees aborts.
					sem := Semantics(n / 11 % numSemClasses)
					var seen uint64
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("sem=%v: body did not panic", sem)
							}
						}()
						_ = e.Run(sem, func(tx *Txn) error {
							seen++
							if _, err := read(tx, hot[i]); err != nil {
								return err
							}
							panic("body panic")
						})
					}()
					tl.starts[sem] += seen
					tl.aborts[sem] += seen
				case 10:
					// A deterministic kill. The victim holds its commit
					// lock; the attacker out-ranks it — by karma (3
					// accesses to 1), or by age under the timestamp
					// manager (it began first) — and kills it.
					cm := NewKarma()
					if n/11%2 == 1 {
						cm = NewTimestamp()
					}
					attacker := e.BeginWith(SemanticsDef, cm)
					victim := e.Begin(SemanticsDef)
					tl.starts[SemanticsDef] += 2
					_ = write(victim, private[w], n)
					victim.registerLive()
					if err := victim.lockForCommit(&victim.wset[0]); err != nil {
						t.Errorf("victim lock: %v", err)
						return
					}
					_, _ = read(attacker, pad[w])
					_, _ = read(attacker, pad[w])
					_ = write(attacker, private[w], -n)
					attacked := make(chan error, 1)
					go func() { attacked <- attacker.Commit() }()
					for !victim.isKilled() {
						runtime.Gosched()
					}
					if err := victim.Commit(); !errors.Is(err, ErrKilled) {
						t.Errorf("killed victim committed: %v", err)
						return
					}
					tl.aborts[SemanticsDef]++
					tl.kills++
					if err = <-attacked; err == nil {
						tl.commits[SemanticsDef]++
					}
				}
				if err != nil {
					t.Errorf("op %d: unexpected error: %v", n%11, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var want tally
	for _, tl := range tallies {
		for p := range want.starts {
			want.starts[p] += tl.starts[p]
			want.commits[p] += tl.commits[p]
			want.aborts[p] += tl.aborts[p]
		}
		want.reads += tl.reads
		want.writes += tl.writes
		want.kills += tl.kills
	}
	s := e.Stats()
	for p := Semantics(0); p < numSemClasses; p++ {
		got, wantSem := s.Sem(p), SemStats{Starts: want.starts[p], Commits: want.commits[p], Aborts: want.aborts[p]}
		if got != wantSem {
			t.Errorf("sem=%v: stats %+v, caller tally %+v", p, got, wantSem)
		}
	}
	if s.Reads != want.reads || s.Writes != want.writes {
		t.Errorf("reads/writes = %d/%d, caller tally %d/%d", s.Reads, s.Writes, want.reads, want.writes)
	}
	if got := obs.kills.Load() + want.kills; s.Kills != got {
		t.Errorf("Kills = %d, want %d (observed runs plus deterministic kills)", s.Kills, got)
	}
	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("Starts = %d, want Commits+Aborts = %d", s.Starts, s.Commits+s.Aborts)
	}
	if n := e.snaps.activeCount(); n != 0 {
		t.Errorf("%d snapshot registrations leaked (panicking bodies must release theirs)", n)
	}
	t.Logf("%v; %v", s, s.PerSemString())
}
