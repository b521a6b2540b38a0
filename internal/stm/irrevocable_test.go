package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestIrrevocableCommitsFirstAttempt(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	attempts := 0
	err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		attempts++
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v.(int)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("irrevocable ran %d attempts, want exactly 1", attempts)
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("x = %d, want 1", got)
	}
}

func TestIrrevocableCannotBeKilled(t *testing.T) {
	e := NewDefaultEngine()
	tx := e.Begin(SemanticsIrrevocable)
	if tx.kill(tx.ID()) {
		t.Fatal("kill() must refuse irrevocable transactions")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestIrrevocableSerializedByToken(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	var inside atomic.Int32
	var maxInside atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
					n := inside.Add(1)
					for {
						m := maxInside.Load()
						if n <= m || maxInside.CompareAndSwap(m, n) {
							break
						}
					}
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					if err := tx.Write(x, v.(int)+1); err != nil {
						return err
					}
					inside.Add(-1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := maxInside.Load(); m != 1 {
		t.Fatalf("observed %d concurrent irrevocable transactions, want 1", m)
	}
	if got := x.LoadDirect().(int); got != 200 {
		t.Fatalf("x = %d, want 200", got)
	}
}

// TestIrrevocableVsOptimistic: one irrevocable transaction mixed with
// optimistic writers; the irrevocable one must commit exactly once and
// the counter must not lose updates.
func TestIrrevocableVsOptimistic(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(0)
	const optWorkers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < optWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := e.Run(SemanticsDef, func(tx *Txn) error {
					v, err := tx.Read(x)
					if err != nil {
						return err
					}
					return tx.Write(x, v.(int)+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
				v, err := tx.Read(x)
				if err != nil {
					return err
				}
				return tx.Write(x, v.(int)+1)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	want := (optWorkers + 1) * per
	if got := x.LoadDirect().(int); got != want {
		t.Fatalf("x = %d, want %d", got, want)
	}
}

// TestIrrevocableReadLocksRestoreVersion: a read-only encounter lock must
// restore the variable's original version word so later readers see an
// unchanged version.
func TestIrrevocableReadLocksRestoreVersion(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(5)
	before := x.lw.Load()
	if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		_, err := tx.Read(x)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after := x.lw.Load()
	if before != after {
		t.Fatalf("read-only irrevocable changed lock word %#x -> %#x", before, after)
	}
	if _, locked := x.lockedBy(); locked {
		t.Fatal("variable left locked")
	}
}

func TestIrrevocableUserErrorReleasesLocks(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(1)
	sentinel := errTest{}
	err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
		if err := tx.Write(x, 99); err != nil {
			return err
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if _, locked := x.lockedBy(); locked {
		t.Fatal("abort left encounter lock held")
	}
	if got := x.LoadDirect().(int); got != 1 {
		t.Fatalf("aborted irrevocable write leaked: %d", got)
	}
	// The engine must accept new irrevocable transactions (token freed).
	if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

type errTest struct{}

func (errTest) Error() string { return "test error" }

// reenterIrrevocable reads and writes x n times from tx, every other
// access from inside a nested scope, and checks after each access that
// tx holds exactly one encounter lock — on x, stamped with its id.
func reenterIrrevocable(t *testing.T, tx *Txn, x *Var, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		nested := i%2 == 1
		if nested {
			tx.PushMode(SemanticsDef)
		}
		v, err := tx.Read(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(x, v.(int)+1); err != nil {
			t.Fatal(err)
		}
		if nested {
			tx.PopMode()
		}
		if len(tx.encLocks) != 1 || tx.encLocks[0].v != x {
			t.Fatalf("access %d: %d encounter locks, want exactly one on x", i, len(tx.encLocks))
		}
		if w := x.lw.Load(); w != packOwner(tx.id) {
			t.Fatalf("access %d: lock word %#x, want owned by attempt %d", i, w, tx.id)
		}
	}
}

// TestIrrevocableReentryHoldsOneLock: re-entering a variable the
// attempt already locked — 1000 times, from the top level and from a
// nested scope — adds no encounter lock, and the one lock is released
// however the attempt ends.
func TestIrrevocableReentryHoldsOneLock(t *testing.T) {
	const n = 1000
	t.Run("commit", func(t *testing.T) {
		e := NewDefaultEngine()
		x := e.NewVar(0)
		tx := e.Begin(SemanticsIrrevocable)
		reenterIrrevocable(t, tx, x, n)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, locked := x.lockedBy(); locked {
			t.Fatal("commit left x locked")
		}
		if got := x.LoadDirect().(int); got != n {
			t.Fatalf("x = %d, want %d", got, n)
		}
	})
	t.Run("abort", func(t *testing.T) {
		e := NewDefaultEngine()
		x := e.NewVar(0)
		before := x.lw.Load()
		tx := e.Begin(SemanticsIrrevocable)
		reenterIrrevocable(t, tx, x, n)
		tx.Abort()
		if after := x.lw.Load(); after != before {
			t.Fatalf("abort left lock word %#x, want the pre-lock %#x", after, before)
		}
		if got := x.LoadDirect().(int); got != 0 {
			t.Fatalf("aborted writes leaked: x = %d", got)
		}
	})
	t.Run("panic", func(t *testing.T) {
		e := NewDefaultEngine()
		x := e.NewVar(0)
		before := x.lw.Load()
		func() {
			defer func() {
				if r := recover(); r != "body panic" {
					t.Fatalf("recovered %v, want the body's panic", r)
				}
			}()
			e.Run(SemanticsIrrevocable, func(tx *Txn) error {
				reenterIrrevocable(t, tx, x, n)
				panic("body panic")
			})
		}()
		if after := x.lw.Load(); after != before {
			t.Fatalf("panic left lock word %#x, want the pre-lock %#x", after, before)
		}
		if got := x.LoadDirect().(int); got != 0 {
			t.Fatalf("panicked writes leaked: x = %d", got)
		}
		// The token was freed with the lock.
		if err := e.Run(SemanticsIrrevocable, func(tx *Txn) error { return tx.Write(x, 1) }); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIrrevocableWaitsForForeignLock: the lock-word ownership test must
// not mistake another attempt's lock for the irrevocable reader's own —
// the reader waits until the holder releases.
func TestIrrevocableWaitsForForeignLock(t *testing.T) {
	e := NewDefaultEngine()
	x := e.NewVar(7)
	holder := e.Begin(SemanticsDef)
	prev, ok := x.tryLock(holder.ID())
	if !ok {
		t.Fatal("could not lock x for the holder")
	}
	got := make(chan any, 1)
	go func() {
		var seen any
		err := e.Run(SemanticsIrrevocable, func(tx *Txn) error {
			v, err := tx.Read(x)
			seen = v
			return err
		})
		if err != nil {
			t.Error(err)
		}
		got <- seen
	}()
	select {
	case v := <-got:
		t.Fatalf("irrevocable read %v through a lock held by attempt %d", v, holder.ID())
	case <-time.After(50 * time.Millisecond):
	}
	x.unlockTo(prev)
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("read %v, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("irrevocable reader still waiting after the holder released")
	}
	holder.Abort()
	if _, locked := x.lockedBy(); locked {
		t.Fatal("x left locked")
	}
}
