package server

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"polytm/internal/repl"
	"polytm/internal/server/client"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// dirtyTotals sums the dirty-set size over st's shards and reports
// whether every shard is in the flushed state.
func dirtyTotals(st *Store) (n int, allFlushed bool) {
	allFlushed = true
	for _, sh := range st.tab().shards {
		k, fl := sh.dirty.peek()
		n += k
		allFlushed = allFlushed && fl
	}
	return n, allFlushed
}

// TestDirtySetDropsMarksWhileFlushed: once flushed, every mark call is
// a no-op until take re-arms marking, and restoring a failed base cut
// drops marks again.
func TestDirtySetDropsMarksWhileFlushed(t *testing.T) {
	var d dirtySet
	d.mark([]byte("before"))
	d.markFlush()
	d.mark([]byte("a"))
	d.markString("b")
	d.markOps([]wal.Op{{Kind: wal.OpSet, Key: "c"}, {Kind: wal.OpDel, Key: "d"}})
	if n, fl := d.peek(); n != 0 || !fl {
		t.Fatalf("after markFlush + marks: n=%d flushed=%v, want 0, true", n, fl)
	}

	taken, fl := d.take()
	if len(taken) != 0 || !fl {
		t.Fatalf("take = %v, %v, want no keys, flushed", taken, fl)
	}
	d.mark([]byte("x"))
	if n, fl := d.peek(); n != 1 || fl {
		t.Fatalf("after take + mark: n=%d flushed=%v, want 1, false", n, fl)
	}

	// A base cut that failed puts the flag back, and marks drop again —
	// including one that landed between the take and the restore.
	d.restore(taken, true)
	d.markString("y")
	if n, fl := d.peek(); n != 0 || !fl {
		t.Fatalf("after restore(flushed): n=%d flushed=%v, want 0, true", n, fl)
	}

	// A failed delta cut merges its keys back.
	d.take()
	d.mark([]byte("p"))
	taken, fl = d.take()
	d.mark([]byte("q"))
	d.restore(taken, fl)
	if keys, fl := d.snapshotKeys(); len(keys) != 2 || fl {
		t.Fatalf("after restore(delta): keys=%v flushed=%v, want p and q", keys, fl)
	}

	// A flush inside an op group drops what came before it in the group.
	d.take()
	d.markOps([]wal.Op{{Kind: wal.OpSet, Key: "e"}, {Kind: wal.OpFlush}, {Kind: wal.OpSet, Key: "f"}})
	if n, fl := d.peek(); n != 0 || !fl {
		t.Fatalf("after an op group with a flush: n=%d flushed=%v, want 0, true", n, fl)
	}
}

// TestFreshStoreLoadSkipsDirtyMarks: a fresh durable store owes a full
// base, so a bulk load marks nothing; the base re-arms marking, and the
// next cut is a delta of exactly the keys written after it.
func TestFreshStoreLoadSkipsDirtyMarks(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, _ := newShardedDurable(t, dir, 2, wal.ModeOff)
	defer func() { st.CloseDurability() }()

	fillKeys(t, st, 10_000, func(i int) string { return "v0" })
	if n, fl := dirtyTotals(st); n != 0 || !fl {
		t.Fatalf("after a fresh load: %d dirty keys, flushed=%v, want 0, true", n, fl)
	}
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	for i, sh := range st.tab().shards {
		if kind := sh.wal.LastCheckpointKind(); kind != wal.CkptFull {
			t.Fatalf("shard %d: first checkpoint kind = %v, want full", i, kind)
		}
	}
	if n, fl := dirtyTotals(st); n != 0 || fl {
		t.Fatalf("after the base: %d dirty keys, flushed=%v, want 0, false", n, fl)
	}

	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := ckptKeyN(i * 97)
		execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: []byte(k), Val: []byte("v1")})
		want[k] = true
	}
	if n, _ := dirtyTotals(st); n != len(want) {
		t.Fatalf("%d dirty keys after %d SETs", n, len(want))
	}
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i, sh := range st.tab().shards {
		chain := sh.wal.Chain()
		if chain.Len() != 1 || sh.wal.LastCheckpointKind() != wal.CkptDelta {
			t.Fatalf("shard %d: chain %+v after the SETs, want base + 1 delta", i, chain)
		}
		if err := wal.ReadDelta(sh.wal.DeltaPath(chain.Deltas[0].Seg), func(k, v string, del bool) error {
			if del || v != "v1" {
				return fmt.Errorf("delta entry %s = %q (del=%v)", k, v, del)
			}
			got[k] = true
			return nil
		}); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("deltas hold %d keys, want exactly the %d SET keys", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("delta misses %s", k)
		}
	}

	st.CloseDurability()
	st, _ = newShardedDurable(t, dir, 2, wal.ModeOff)
	rec := scanAll(t, st)
	if len(rec) != 10_000 {
		t.Fatalf("reopen recovered %d keys, want 10000", len(rec))
	}
	for i := 0; i < 10_000; i++ {
		k, v := ckptKeyN(i), "v0"
		if want[k] {
			v = "v1"
		}
		if rec[k] != v {
			t.Fatalf("reopen: %s = %q, want %q", k, rec[k], v)
		}
	}
}

// TestFollowerCatchUpSkipsDirtyMarks: a durable follower's snapshot
// catch-up (a FLUSH, then the primary's keys) leaves its dirty sets
// empty; after its first base, live replicated writes mark again.
func TestFollowerCatchUpSkipsDirtyMarks(t *testing.T) {
	_, paddr := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{SyncAck: true})
	pcl, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("f-%05d", i)) }
	for i := 0; i < 500; i++ {
		if err := pcl.Set(key(i), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}

	fsrv, _ := startReplServer(t, Config{StoreShards: 2},
		&Durability{Dir: t.TempDir(), Fsync: wal.ModeOff, CheckpointEvery: -1},
		&ReplConfig{Follow: paddr, Backoff: repl.Backoff{Min: 10 * time.Millisecond}})
	fst := fsrv.Store()
	waitCond(t, 10*time.Second, "follower caught up", func() bool {
		fl := fsrv.Follower()
		return fl != nil && fl.State() == repl.StateStreaming && len(scanAll(t, fst)) == 500
	})
	if n, fl := dirtyTotals(fst); n != 0 || !fl {
		t.Fatalf("follower after catch-up: %d dirty keys, flushed=%v, want 0, true", n, fl)
	}

	if err := fst.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 10; i++ {
		if err := pcl.Set(key(1000+i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
		want = append(want, string(key(1000+i)))
	}
	waitCond(t, 10*time.Second, "follower applies the new keys", func() bool {
		return len(scanAll(t, fst)) == 510
	})
	var got []string
	for _, sh := range fst.tab().shards {
		keys, fl := sh.dirty.snapshotKeys()
		if fl {
			t.Fatal("follower shard still flushed after its base")
		}
		got = append(got, keys...)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower dirty keys after its base = %v, want %v", got, want)
	}
}
