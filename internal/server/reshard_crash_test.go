package server

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"polytm/internal/wal"
	"polytm/internal/wire"
)

// Online-resharding crash windows: SIGKILL a durable store inside the
// two windows of the split protocol and the two of the merge protocol,
// and prove recovery restores the exact acknowledged prefix in all four.
//
//   - "begin" window: the process dies the instant the RESHARD BEGIN
//     record is durable — the new shard never went live and no routing
//     change was ever visible. Recovery must roll the split back: the
//     original shard count, the original epoch, the new shard's
//     directory gone, every acknowledged key intact.
//   - "commit" window: the process dies the instant the RESHARD COMMIT
//     record is durable — the cutover reached its commit point but the
//     crash beat the MANIFEST rewrite. Recovery must roll the split
//     forward: adopt the grown table from the journal, rewrite the
//     manifest, and surface every acknowledged key.
//   - "merge-begin" and "merge-commit": the same two records of a MERGE
//     that folds the split's new shard back into its source. A BEGIN
//     rolls back to the split table; a COMMIT rolls forward to the
//     shrunk table, drops the absorbed shard's directory and heals the
//     manifest.
//
// Like the 2PC gate, the kill is injected through the WAL's
// OnDurableRecord hook — on the flusher goroutine, after the record is
// on stable storage and before any appender is acknowledged.

const (
	reshardCrashDirEnv  = "POLYSERVE_RESHARD_CRASH_DIR"
	reshardCrashModeEnv = "POLYSERVE_RESHARD_CRASH_MODE"
	reshardCrashShards  = 2
	reshardCrashKeys    = 96
)

// reshardCrashChild seeds an acknowledged keyspace, arms the kill hook
// on the journal record for its window, then starts a SPLIT (or, for
// the merge windows, completes a split and starts the MERGE undoing
// it) — and dies mid-protocol.
func reshardCrashChild(dir, mode string) {
	target := byte(0x13) // RESHARD BEGIN
	if strings.HasSuffix(mode, "commit") {
		target = 0x14 // RESHARD COMMIT
	}
	var armed atomic.Bool
	st := newSharded(reshardCrashShards)
	_, err := st.EnableDurability(Durability{
		Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1,
		onDurableRecord: func(first byte) {
			if armed.Load() && first == target {
				syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
				select {} // never acknowledge past the kill point
			}
		},
	})
	if err != nil {
		fmt.Printf("CHILD-ERR enable durability: %v\n", err)
		os.Exit(1)
	}
	for i := 0; i < reshardCrashKeys; i++ {
		resp := st.Execute(&wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(i), Val: []byte(fmt.Sprintf("v%d", i))})
		if resp.Status != wire.StatusOK {
			fmt.Printf("CHILD-ERR seed %d: %s\n", i, resp.Msg)
			os.Exit(1)
		}
	}
	merge := strings.HasPrefix(mode, "merge-")
	if merge {
		if _, err := st.Split(context.Background(), 0, 0); err != nil {
			fmt.Printf("CHILD-ERR split: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println("SEEDED")
	armed.Store(true)
	if merge {
		st.Merge(context.Background(), 1, 0, 2)
	} else {
		st.Split(context.Background(), 0, 0)
	}
	fmt.Println("CHILD-ERR survived the kill window")
	os.Exit(1)
}

// TestReshardCrashRecovery kills a child process in each split window
// and verifies the recovered directory. CI runs it -count=10 for the
// 20-kill acceptance gate.
func TestReshardCrashRecovery(t *testing.T) {
	if dir := os.Getenv(reshardCrashDirEnv); dir != "" {
		reshardCrashChild(dir, os.Getenv(reshardCrashModeEnv)) // never returns
	}
	for _, mode := range []string{"begin", "commit", "merge-begin", "merge-commit"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=TestReshardCrashRecovery$", "-test.v")
			cmd.Env = append(os.Environ(), reshardCrashDirEnv+"="+dir, reshardCrashModeEnv+"="+mode)
			timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
			out, _ := cmd.CombinedOutput() // dies by SIGKILL: error by design
			timer.Stop()
			if s := string(out); strings.Contains(s, "CHILD-ERR") || !strings.Contains(s, "SEEDED") {
				t.Fatalf("crash child (mode=%s):\n%s", mode, s)
			}

			// The crash in every window beat the MANIFEST rewrite, so the
			// pinned count is still the pre-reshard one (the split table
			// for the merge windows) — recovery itself decides whether the
			// table changes.
			before, epoch := reshardCrashShards, uint64(0)
			if strings.HasPrefix(mode, "merge-") {
				before, epoch = reshardCrashShards+1, 1
			}
			pinned, err := WALShardCount(dir)
			if err != nil {
				t.Fatalf("WALShardCount: %v", err)
			}
			if pinned != before {
				t.Fatalf("pinned shard count = %d, want %d", pinned, before)
			}
			st := newSharded(before)
			res, err := st.EnableDurability(Durability{Dir: dir, Fsync: wal.ModeAlways, CheckpointEvery: -1})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer st.CloseDurability()
			t.Logf("recovery: %s", res)

			switch mode {
			case "begin", "merge-begin":
				// Rolled back: the pre-reshard table.
				if st.NumShards() != before || st.RoutingEpoch() != epoch {
					t.Fatalf("%s-window crash left shards=%d epoch=%d", mode, st.NumShards(), st.RoutingEpoch())
				}
				if mode == "begin" && fileExists(filepath.Join(dir, "shard-0002")) {
					t.Fatal("rolled-back split left the new shard's directory")
				}
			case "commit":
				// Rolled forward: the journaled table, manifest healed.
				if st.NumShards() != reshardCrashShards+1 || st.RoutingEpoch() != 1 {
					t.Fatalf("commit-window crash recovered to shards=%d epoch=%d", st.NumShards(), st.RoutingEpoch())
				}
				if n, err := WALShardCount(dir); err != nil || n != reshardCrashShards+1 {
					t.Fatalf("manifest not healed after roll-forward: n=%d err=%v", n, err)
				}
			case "merge-commit":
				// Rolled forward: the split undone, the absorbed shard's
				// directory gone, manifest healed.
				if st.NumShards() != reshardCrashShards || st.RoutingEpoch() != 2 {
					t.Fatalf("merge-commit-window crash recovered to shards=%d epoch=%d", st.NumShards(), st.RoutingEpoch())
				}
				if fileExists(filepath.Join(dir, "shard-0002")) {
					t.Fatal("rolled-forward merge left the absorbed shard's directory")
				}
				if n, err := WALShardCount(dir); err != nil || n != reshardCrashShards {
					t.Fatalf("manifest not healed after roll-forward: n=%d err=%v", n, err)
				}
			}

			// Both windows: the exact acknowledged prefix, no more, no less.
			got := scanAll(t, st)
			if len(got) != reshardCrashKeys {
				t.Fatalf("recovered %d keys, want %d", len(got), reshardCrashKeys)
			}
			for i := 0; i < reshardCrashKeys; i++ {
				if got[string(tkey(i))] != fmt.Sprintf("v%d", i) {
					t.Fatalf("key %d: %q", i, got[string(tkey(i))])
				}
			}
			// And the recovered store serves writes on every shard.
			for i := 0; i < 32; i++ {
				execOK(t, st, &wire.Request{Op: wire.OpSet, Sem: wire.SemDefault, Key: tkey(1000 + i), Val: []byte("post")})
			}
		})
	}
}
