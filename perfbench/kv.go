package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"polytm/internal/repl"
	"polytm/internal/server/client"
	"polytm/internal/wire"
)

// kvSpec is one polyserve workload.
type kvSpec struct {
	name     string
	durable  bool // primary has a WAL (-fsync batch, -repl-sync) and a follower
	mix      mix
	rate     float64       // fixed offered rate, req/s
	limit    time.Duration // p99 latency limit for max_rps
	counters int           // INCR keys
	pairs    int           // TXN key pairs
}

const (
	kvKeys   = 100_000
	kvConns  = 2 // generator connections (= sender threads)
	kvShards = 2 // polyserve -store-shards
)

var kvReadMostly = kvSpec{
	name:  "kv-read-mostly",
	mix:   mix{kGet: 90, kScan: 5, kSet: 5},
	rate:  20000,
	limit: 50 * time.Millisecond,
}

var kvWriteReplicated = kvSpec{
	name:     "kv-write-replicated",
	durable:  true,
	mix:      mix{kGet: 35, kScan: 5, kSet: 35, kIncr: 15, kTxn: 10},
	rate:     2000,
	limit:    250 * time.Millisecond,
	counters: 64,
	pairs:    256,
}

// cluster is one polyserve deployment: a primary and, for durable
// workloads, a follower.
type cluster struct {
	primary, follower *proc
	pdir, fdir        string
	pargs             []string
	userBytes         int64 // acknowledged key+value bytes written by prefill
}

// startCluster starts the workload's servers, prefills the keyspace and
// (durable) attaches the follower once prefill is done.
func (r *runner) startCluster(spec *kvSpec, ks *keyspace, tag string) (*cluster, error) {
	cl := &cluster{
		pdir: filepath.Join(r.work, tag, "primary"),
		fdir: filepath.Join(r.work, tag, "follower"),
	}
	cl.pargs = []string{"-addr", "127.0.0.1:0", "-store-shards", strconv.Itoa(kvShards), "-quiet"}
	if spec.durable {
		// Checkpoint every second with at most two deltas per base, so a
		// measured window sees several checkpoints and a compaction.
		cl.pargs = append(cl.pargs, "-wal-dir", cl.pdir, "-fsync", "batch", "-repl-sync",
			"-checkpoint-every", "2s", "-ckpt-max-chain", "2")
	}
	var err error
	if cl.primary, err = startPolyserve(r.polyserve, filepath.Join(r.logs, spec.name+"-primary.log"), 60*time.Second, cl.pargs...); err != nil {
		return nil, err
	}
	if cl.userBytes, err = prefill(cl.primary.addr, ks); err != nil {
		cl.primary.kill()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if spec.durable {
		cl.follower, err = startPolyserve(r.polyserve, filepath.Join(r.logs, spec.name+"-follower.log"), 60*time.Second,
			"-addr", "127.0.0.1:0", "-store-shards", strconv.Itoa(kvShards), "-quiet",
			"-wal-dir", cl.fdir, "-fsync", "batch", "-follow", cl.primary.addr)
		if err == nil {
			err = waitStreaming(cl.follower.addr, 60*time.Second)
		}
		if err != nil {
			cl.stop()
			return nil, fmt.Errorf("follower: %w", err)
		}
	}
	return cl, nil
}

// cpuSeconds returns the CPU time the cluster's server processes have
// used. The kernel does not charge them time a hypervisor gave to other
// guests, so a cost per request read from it holds still when the
// machine is shared, where wall-clock rates do not.
func (cl *cluster) cpuSeconds() float64 {
	var s float64
	for _, p := range []*proc{cl.primary, cl.follower} {
		if p != nil {
			cpu, err := procCPUSeconds(p.cmd.Process.Pid)
			if err != nil {
				return math.NaN()
			}
			s += cpu
		}
	}
	return s
}

func (cl *cluster) stop() {
	for _, p := range []*proc{cl.follower, cl.primary} {
		if p != nil && p.alive() {
			p.stop(5 * time.Second)
		}
	}
}

// prefill writes every "k" key and both keys of every TXN pair, in
// single-shard TXN batches over two connections. It returns the
// key+value bytes written.
func prefill(addr string, ks *keyspace) (int64, error) {
	cl, err := client.Dial(addr, client.WithPoolSize(kvConns), client.WithDialTimeout(5*time.Second))
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	const batch = 250
	var txns []*wire.Request
	pending := make([][]wire.Request, kvShards)
	var userBytes int64
	add := func(key, val []byte) {
		sh := shardOf(key, kvShards)
		pending[sh] = append(pending[sh], wire.Request{Op: wire.OpSet, Key: key, Val: val})
		userBytes += int64(len(key) + len(val))
		if len(pending[sh]) == batch {
			txns = append(txns, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: pending[sh]})
			pending[sh] = nil
		}
	}
	for i := 0; i < ks.nkeys; i++ {
		k := appendKey(nil, 'k', i)
		add(k, appendVal(nil, k, 9, 0))
	}
	for _, p := range ks.pairs {
		v := appendVal(nil, []byte("pair"), 9, 0)
		add(appendKey(nil, 't', p[0]), v)
		add(appendKey(nil, 't', p[1]), v)
	}
	for _, b := range pending {
		if len(b) > 0 {
			txns = append(txns, &wire.Request{Op: wire.OpTxn, Sem: wire.SemDefault, Batch: b})
		}
	}
	errs := make([]error, kvConns)
	var wg sync.WaitGroup
	for c := 0; c < kvConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * 4; i < len(txns); i += kvConns * 4 {
				resps, err := cl.Do(txns[i:min(i+4, len(txns))]...)
				if err == nil {
					for _, rs := range resps {
						if err = rs.Err(); err != nil {
							break
						}
					}
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return userBytes, nil
}

// statsOf reads a server's STATS counters.
func statsOf(addr string) (map[string]uint64, error) {
	cl, err := client.Dial(addr, client.WithPoolSize(1), client.WithDialTimeout(5*time.Second))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.Stats()
}

// waitStreaming polls a follower's STATS until its link streams.
func waitStreaming(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		st, err := statsOf(addr)
		if err == nil && st["repl_state"] == uint64(repl.StateStreaming) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower %s not streaming after %v (last error %v)", addr, budget, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// delta returns after[name] - before[name].
func delta(before, after map[string]uint64, name string) float64 {
	return float64(after[name]) - float64(before[name])
}

// dialConns opens the generator connections, one stream each.
func dialConns(addr string, ks *keyspace, m mix, seed uint64) ([]*genConn, error) {
	conns := make([]*genConn, kvConns)
	for i := range conns {
		g, err := dialGen(addr, newStream(ks, m, seed, i), ks.counters)
		if err != nil {
			closeConns(conns[:i])
			return nil, err
		}
		conns[i] = g
	}
	return conns, nil
}

func closeConns(conns []*genConn) {
	for _, g := range conns {
		if g != nil {
			g.close()
		}
	}
}

// setupKV starts the cluster n times (all but the last are torn down
// again) and records the median start-to-ready time as setup_s.
func (r *runner) setupKV(spec *kvSpec, ks *keyspace, n int) (*cluster, error) {
	var times []float64
	var cl *cluster
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := r.startCluster(spec, ks, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	r.set("setup_s", median(times), "s", uint64(n))
	return cl, nil
}

// latencyMetrics records a window's per-class p50 and p99 (µs) and
// completed requests per second into m.
func latencyMetrics(w *window, m map[string]Metric) {
	for c, name := range classNames {
		h := &w.lat[c]
		if h.Count() == 0 {
			continue
		}
		m[name+"_p50_us"] = Metric{h.Quantile(0.5) / 1e3, "us", h.Count()}
		m[name+"_p99_us"] = Metric{h.Quantile(0.99) / 1e3, "us", h.Count()}
	}
	m["ops_per_s"] = Metric{float64(w.completed()) / w.dur.Seconds(), "1/s", uint64(w.completed())}
}

// checkGenerator marks the run invalid when the generator's own
// lateness is a large share of the latency it reports: then the
// figures measure the generator, not the server.
func (r *runner) checkGenerator(w *window) {
	if late, lat := w.late.Quantile(0.5), w.all.Quantile(0.5); late > lat/2 {
		r.problem("generator ran late: median lateness %.1f us vs median latency %.1f us", late/1e3, lat/1e3)
	}
}

// checkSemantics compares the per-semantics STATS deltas over a window
// with the requests sent: every GET must have committed as snapshot
// (a request built with a zero semantics byte silently runs as def),
// every SCAN as weak on each shard, and snapshot must never abort. A
// durable server also takes snapshot reads of its own (checkpoints,
// follower catch-up), so there the GETs bound the count from below.
func (r *runner) checkSemantics(w *window, before, after map[string]uint64, durable bool) {
	gets, scans := float64(w.done[kGet]), float64(w.done[kScan])
	if got := delta(before, after, "commits.snapshot"); got < gets || (!durable && got != gets) {
		r.problem("semantics: %v snapshot commits for %v GETs", got, gets)
	}
	if got := delta(before, after, "commits.weak"); got < scans {
		r.problem("semantics: %v weak commits for %v SCANs", got, scans)
	}
	if got := delta(before, after, "aborts.snapshot"); got != 0 {
		r.problem("semantics: %v snapshot aborts (snapshot reads never abort)", got)
	}
	writes := float64(w.done[kSet] + w.done[kIncr] + w.done[kTxn])
	if got := delta(before, after, "commits.def") + delta(before, after, "commits.irrevocable"); got < writes {
		r.problem("semantics: %v def+irrevocable commits for %v writes", got, writes)
	}
	if w.done[kTxn] > 0 {
		if got := delta(before, after, "xshard_txns"); got != float64(w.done[kTxn]) {
			r.problem("routing: %v cross-shard txns for %d TXNs on cross-shard pairs", got, w.done[kTxn])
		}
	}
}

// searchMaxRPS finds the highest offered rate whose p99 over all
// classes meets spec.limit with no failures and no growing backlog.
// A short overload window at 5x the fixed rate (above capacity on both
// kv workloads) measures the capacity C the connections sustain; the
// rate is then bisected between 0.6·C (halved until it passes) and C. A probe that misses is retried once,
// so one stall on a shared machine does not decide the result.
func (r *runner) searchMaxRPS(conns []*genConn, spec *kvSpec, budget time.Duration) (float64, []string) {
	const probe = time.Second
	deadline := time.Now().Add(budget)
	var log []string
	try := func(rate float64) bool {
		allowed := int64(rate * spec.limit.Seconds())
		w := runWindow(conns, rate, probe, 5*time.Second, 4*allowed+64)
		r.count(w)
		p99 := time.Duration(w.all.Quantile(0.99))
		ok := !w.aborted && w.failed == 0 && p99 <= spec.limit && w.endBacklog <= max(allowed, 16)
		log = append(log, fmt.Sprintf("%.0f req/s: p99 %v backlog %d aborted %v -> %v", rate, p99.Round(time.Microsecond), w.endBacklog, w.aborted, ok))
		return ok
	}
	pass := func(rate float64) bool { return try(rate) || try(rate) }

	over := runWindow(conns, 5*spec.rate, probe/2, 10*time.Second, 0)
	r.count(over)
	capacity := float64(over.completed()) / over.dur.Seconds()
	log = append(log, fmt.Sprintf("capacity at %.0f req/s offered: %.0f req/s", 5*spec.rate, capacity))
	lo, hi := 0.6*capacity, capacity
	for !pass(lo) {
		if hi, lo = lo, lo/2; lo < spec.rate/16 || time.Now().After(deadline) {
			return 0, log
		}
	}
	for hi/lo > 1.04 && time.Now().Before(deadline) {
		mid := math.Sqrt(lo * hi)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, log
}

// runKV runs one polyserve workload. Untraced: three set-ups, a 1 s
// warm-up, the fixed-rate window (half of --seconds), the max_rps
// search (the other half), then — durable — SIGKILL, follower check,
// restart and primary check. Traced: see traceKV.
func (r *runner) runKV(spec *kvSpec) error {
	// Each sender thread sleeps in nanosleep holding its processor until
	// the runtime hands it off; two extra processors keep the receivers
	// (and, in the traced run, the embedded server) from waiting on that.
	runtime.GOMAXPROCS(runtime.NumCPU() + kvConns)
	r.res.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.res.Env.OfferedRPS = spec.rate
	r.res.Env.LatencyLimitUS = float64(spec.limit.Microseconds())
	r.res.Env.Loop = fmt.Sprintf("open (%d connections, requests pipelined, latency timed from each request's due time)", kvConns)
	if r.trace {
		return r.traceKV(spec)
	}
	ks := newKeyspace(kvKeys, kvConns, spec.counters, spec.pairs, kvShards, r.seed)
	cl, err := r.setupKV(spec, ks, 3)
	if err != nil {
		return err
	}
	defer cl.stop()
	conns, err := dialConns(cl.primary.addr, ks, spec.mix, r.seed)
	if err != nil {
		return err
	}
	defer closeConns(conns)
	total := time.Duration(r.seconds) * time.Second
	w, err := r.measureKV(cl, conns, spec, total/2)
	if err != nil {
		return err
	}
	latencyMetrics(w, r.res.Metrics)
	// Peak memory of the workload at its fixed rate, before the max_rps
	// search's overload windows queue requests in the server.
	rss, err := statusMB(cl.primary.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MB", 0)
	maxRPS, log := r.searchMaxRPS(conns, spec, total/2)
	r.set("max_rps", maxRPS, "1/s", uint64(len(log)))
	for _, l := range log {
		fmt.Println("max_rps probe:", l)
	}
	if maxRPS == 0 {
		r.problem("max_rps: no offered rate down to %.0f req/s met the %v p99 limit", spec.rate/16, spec.limit)
	}
	r.checkGenerator(w)
	if spec.durable {
		return r.crashAndVerify(cl, conns, ks)
	}
	return nil
}

// measureKV runs the warm-up and the fixed-rate window, recording the
// latency metrics and checking semantics and the follower link.
func (r *runner) measureKV(cl *cluster, conns []*genConn, spec *kvSpec, dur time.Duration) (*window, error) {
	r.count(runWindow(conns, spec.rate, time.Second, 5*time.Second, 0))
	before, err := statsOf(cl.primary.addr)
	if err != nil {
		return nil, err
	}
	var fbefore map[string]uint64
	if cl.follower != nil {
		if fbefore, err = statsOf(cl.follower.addr); err != nil {
			return nil, err
		}
	}
	cpu0, stopRSS := cl.cpuSeconds(), sampleRSS(cl.primary.cmd.Process.Pid)
	w := runWindow(conns, spec.rate, dur, 5*time.Second, 0)
	r.set("cpu_us_per_op", (cl.cpuSeconds()-cpu0)/float64(w.completed())*1e6, "us", uint64(w.completed()))
	rss, n := stopRSS()
	r.set("rss_mb", rss, "MB", uint64(n))
	r.count(w)
	after, err := statsOf(cl.primary.addr)
	if err != nil {
		return nil, err
	}
	r.checkSemantics(w, before, after, cl.follower != nil)
	if cl.follower != nil {
		fafter, err := statsOf(cl.follower.addr)
		if err != nil {
			return nil, err
		}
		if n := delta(fbefore, fafter, "repl_reconnects"); n != 0 {
			r.problem("follower reconnected %v times during the window", n)
		}
	}
	r.set("gen.late_p99_us", w.late.Quantile(0.99)/1e3, "us", w.late.Count())
	r.set("gen.backlog_max", float64(w.backlogMax), "count", 0)
	return w, nil
}

// crashAndVerify measures disk use, SIGKILLs the primary, checks the
// follower holds every acknowledged write, restarts the primary on the
// same directory (recovery_s) and checks it too.
func (r *runner) crashAndVerify(cl *cluster, conns []*genConn, ks *keyspace) error {
	disk, err := dirBytes(cl.pdir)
	if err != nil {
		return err
	}
	// INCR carries its key and an 8-byte counter; TXN two full pairs.
	user := cl.userBytes + r.acked[kSet]*(keyLen+valLen) + r.acked[kIncr]*(keyLen+8) + r.acked[kTxn]*2*(keyLen+valLen)
	r.set("wal.disk_bytes_per_user_byte", float64(disk)/float64(user), "ratio", 0)

	cl.primary.kill()
	if err := r.verifyKV(cl.follower.addr, "follower", conns, ks); err != nil {
		return err
	}
	cl.follower.stop(5 * time.Second)

	t0 := time.Now()
	args := append([]string(nil), cl.pargs...)
	args[1] = cl.primary.addr // same port: clients and followers find it again
	p, err := startPolyserve(r.polyserve, filepath.Join(r.logs, r.res.Env.Workload+"-restart.log"), 60*time.Second, args...)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	cl.primary = p
	if err := waitPing(p.addr, 30*time.Second); err != nil {
		return err
	}
	r.set("wal.recovery_s", time.Since(t0).Seconds(), "s", 1)
	return r.verifyKV(p.addr, "restarted primary", conns, ks)
}

// waitPing polls until the server answers PING.
func waitPing(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		cl, err := client.Dial(addr, client.WithPoolSize(1), client.WithDialTimeout(time.Second))
		if err == nil {
			err = cl.Ping()
			cl.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not answer PING within %v: %v", addr, budget, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// verifyKV reads back every key the run wrote: each SET key holds its
// last acknowledged value, each counter its count of acknowledged
// INCRs, and both keys of each TXN pair the same value.
func (r *runner) verifyKV(addr, who string, conns []*genConn, ks *keyspace) error {
	cl, err := client.Dial(addr, client.WithPoolSize(1), client.WithDialTimeout(5*time.Second))
	if err != nil {
		return fmt.Errorf("verify %s: %w", who, err)
	}
	defer cl.Close()
	type check struct {
		key  []byte
		want func(val []byte, found bool) string
	}
	var checks []check
	for c, g := range conns {
		for idx, seq := range g.lastSet {
			key := appendKey(nil, 'k', int(idx))
			want := appendVal(nil, key, c, seq)
			checks = append(checks, check{key, func(v []byte, found bool) string {
				if !found || !bytes.Equal(v, want) {
					return fmt.Sprintf("%s: key %s holds %q, last acknowledged SET wrote %q", who, key, v, want)
				}
				return ""
			}})
		}
	}
	for i := 0; i < ks.counters; i++ {
		var acked int64
		for _, g := range conns {
			acked += g.incrAcked[i]
		}
		if acked == 0 {
			continue
		}
		key := appendKey(nil, 'c', i)
		checks = append(checks, check{key, func(v []byte, found bool) string {
			if n, err := strconv.ParseInt(string(v), 10, 64); !found || err != nil || n != acked {
				return fmt.Sprintf("%s: counter %s = %q, want %d acknowledged INCRs", who, key, v, acked)
			}
			return ""
		}})
	}
	pairVals := make([][]byte, 2*len(ks.pairs))
	for i, p := range ks.pairs {
		for j := 0; j < 2; j++ {
			slot := 2*i + j
			checks = append(checks, check{appendKey(nil, 't', p[j]), func(v []byte, found bool) string {
				if !found {
					return fmt.Sprintf("%s: TXN key t%d missing", who, p[j])
				}
				pairVals[slot] = v
				return ""
			}})
		}
	}
	const batch = 256
	failed := 0
	for i := 0; i < len(checks); i += batch {
		chunk := checks[i:min(i+batch, len(checks))]
		reqs := make([]*wire.Request, len(chunk))
		for j, c := range chunk {
			reqs[j] = &wire.Request{Op: wire.OpGet, Sem: wire.SemDefault, Key: c.key}
		}
		resps, err := cl.Do(reqs...)
		if err != nil {
			return fmt.Errorf("verify %s: %w", who, err)
		}
		for j, rs := range resps {
			if msg := chunk[j].want(rs.Val, rs.Status == wire.StatusOK); msg != "" {
				if failed < 5 {
					r.problem("%s", msg)
				}
				failed++
			}
		}
	}
	for i := range ks.pairs {
		if !bytes.Equal(pairVals[2*i], pairVals[2*i+1]) {
			r.problem("%s: TXN pair %v holds %q and %q", who, ks.pairs[i], pairVals[2*i], pairVals[2*i+1])
			failed++
		}
	}
	if failed > 0 {
		r.problem("%s: %d of %d read-back checks failed", who, failed, len(checks))
	}
	fmt.Printf("verified %s: %d keys read back, %d wrong\n", who, len(checks), failed)
	return nil
}
