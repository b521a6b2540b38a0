package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"polytm/internal/server"
	"polytm/internal/wal"
	"polytm/internal/wire"
)

// frameClock follows one direction of a connection's byte stream, which
// is a sequence of 4-byte length-prefixed frames, and timestamps each
// frame's last byte together with its first payload byte (the opcode
// of a request, the kind of a replication frame).
type frameClock struct {
	hdr   [4]byte
	hn    int
	left  int
	first bool // the next payload byte is the frame's first
	kind  byte
	done  []int64
	kinds []byte
}

func (f *frameClock) feed(p []byte, now int64) {
	for len(p) > 0 {
		if f.left == 0 {
			n := copy(f.hdr[f.hn:], p)
			f.hn += n
			p = p[n:]
			if f.hn < 4 {
				return
			}
			f.hn = 0
			f.left = int(binary.BigEndian.Uint32(f.hdr[:]))
			f.first = true
			if f.left == 0 {
				f.complete(now, 0)
			}
			continue
		}
		if f.first {
			f.kind, f.first = p[0], false
		}
		n := min(f.left, len(p))
		f.left -= n
		p = p[n:]
		if f.left == 0 {
			f.complete(now, f.kind)
		}
	}
}

func (f *frameClock) complete(now int64, kind byte) {
	f.done = append(f.done, now)
	f.kinds = append(f.kinds, kind)
}

// tracedConn is a server-side connection that timestamps every frame it
// reads and writes. On a replication feed (first request SUBSCRIBE-WAL)
// it also times each WAL batch sent until the follower's next ACK.
type tracedConn struct {
	net.Conn
	mu      sync.Mutex
	in, out frameClock
	feed    bool
	sentAt  int64 // oldest WAL batch not yet acknowledged
	acks    []int64
	ackAt   []int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := nanotime()
	c.mu.Lock()
	before := len(c.in.done)
	c.in.feed(p[:n], now)
	if before == 0 && len(c.in.done) > 0 && c.in.kinds[0] == byte(wire.OpSubscribeWAL) {
		c.feed = true
	}
	if c.feed && c.sentAt != 0 {
		for _, k := range c.in.kinds[before:] {
			if k == byte(wire.ReplAck) {
				c.acks = append(c.acks, now-c.sentAt)
				c.ackAt = append(c.ackAt, now)
				c.sentAt = 0
				break
			}
		}
	}
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := nanotime()
	c.mu.Lock()
	before := len(c.out.done)
	c.out.feed(p[:n], now)
	if c.feed && c.sentAt == 0 {
		for _, k := range c.out.kinds[before:] {
			if k == byte(wire.ReplWALBatch) {
				c.sentAt = now
				break
			}
		}
	}
	c.mu.Unlock()
	return n, err
}

// serverSpans returns, per request frame on the connection, the
// server's span from the later of the frame's arrival and the previous
// response's write (the connection loop serves one request at a time)
// to the write of its response. The loop flushes pipelined responses
// together, so when several responses leave in one write their group's
// span is split evenly among them.
func (c *tracedConn) serverSpans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := min(len(c.in.done), len(c.out.done))
	spans := make([]Span, n)
	for a := 0; a < n; {
		b := a
		for b+1 < n && c.out.done[b+1] == c.out.done[a] {
			b++
		}
		start, end := c.in.done[a], c.out.done[b]
		if a > 0 {
			start = max(start, c.out.done[a-1])
		}
		per := (end - start) / int64(b-a+1)
		for i := a; i <= b; i++ {
			s := start + int64(i-a)*per
			spans[i] = Span{Name: "server.conn", Parent: "client", Start: s, End: s + per}
		}
		a = b + 1
	}
	return spans
}

// tracedListener wraps the listener handed to server.Serve, so every
// accepted connection is a tracedConn, found again by the client's
// local address.
type tracedListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[string]*tracedConn
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c}
	l.mu.Lock()
	l.conns[c.RemoteAddr().String()] = tc
	l.mu.Unlock()
	return tc, nil
}

func (l *tracedListener) lookup(clientAddr string) *tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[clientAddr]
}

// ackSamples returns the feed connections' WAL-batch→ACK times that
// completed inside [from, to).
func (l *tracedListener) ackSamples(from, to int64) *Hist {
	h := new(Hist)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.mu.Lock()
		for i, at := range c.ackAt {
			if at >= from && at < to {
				h.Record(c.acks[i])
			}
		}
		c.mu.Unlock()
	}
	return h
}

// gcSample reads the Go runtime's GC counters.
type gcSample struct {
	cycles, gcCPU, totalCPU, live float64
	at                            time.Time
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		return v.Float64()
	}
	return gcSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value), time.Now()}
}

// runtimeLayer records the GC metrics between two samples.
func (r *runner) runtimeLayer(a, b gcSample) {
	r.set("runtime.gc_cycles_per_s", (b.cycles-a.cycles)/b.at.Sub(a.at).Seconds(), "1/s", uint64(b.cycles-a.cycles))
	frac := 0.0
	if b.totalCPU > a.totalCPU {
		frac = (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
	}
	r.set("runtime.gc_cpu_frac", frac, "ratio", 0)
	r.set("runtime.heap_live_mb", b.live/(1<<20), "MB", 0)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers records the engine.* counters over a window of requests
// requests, of which scans were scans and writes were writes, from
// STATS-named counter snapshots.
func (r *runner) engineLayers(before, after map[string]uint64, requests, scans, writes int64) {
	d := func(name string) float64 { return delta(before, after, name) }
	for _, s := range semNames {
		r.set("engine."+s+".commit_ratio", ratio(d("commits."+s), d("starts."+s)), "ratio", uint64(d("starts."+s)))
	}
	r.set("engine.attempts_per_request", ratio(d("starts"), float64(requests)), "ratio", uint64(requests))
	for _, c := range []string{"read_aborts", "lock_aborts", "validate_aborts", "kills"} {
		r.set("engine."+c, d(c), "count", 0)
	}
	r.set("engine.elastic_cuts_per_scan", ratio(d("elastic_cuts"), float64(scans)), "ratio", uint64(scans))
	r.set("engine.irrevocables_per_write", ratio(d("irrevocables"), float64(writes)), "ratio", uint64(writes))
	r.set("engine.reads_per_commit", ratio(d("reads"), d("commits")), "ratio", uint64(d("commits")))
	r.set("engine.writes_per_commit", ratio(d("writes"), d("commits")), "ratio", uint64(d("commits")))
}

// idle reports 0 for every declared per-layer metric under the given
// prefixes that the run did not measure: the layer did no work here.
func (r *runner) idle(prefixes ...string) {
	for _, m := range r.spec.PerLayer {
		if _, ok := r.res.Metrics[m.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				r.set(m.Name, 0, m.Unit, 0)
			}
		}
	}
}

// traceKV is the traced run of a polyserve workload.
//
//  1. Untraced: polyserve child processes, one set-up, the fixed-rate
//     window (30% of --seconds) and, durable, SIGKILL + restart +
//     verify. Its latencies are the overhead baseline; its recovery
//     time, disk use and TXN latency are reported as wal.* and store.*.
//  2. Traced: the same server configuration embedded in this process
//     (server.New) behind a traced listener; the same prefill, follower
//     and window. Client spans come from the generator, server spans
//     from the listener, counters from STATS.
//  3. Layer probes on the embedded server: wire encode/decode and
//     Store.ExecuteInto over the workload's own request stream, SCAN
//     fan-out, and a benchmark-owned wal.Log's append latency.
func (r *runner) traceKV(spec *kvSpec) error {
	ks := newKeyspace(kvKeys, kvConns, spec.counters, spec.pairs, kvShards, r.seed)
	dur := time.Duration(r.seconds) * time.Second * 3 / 10

	// 1. Untraced baseline.
	cl, err := r.setupKV(spec, ks, 1)
	if err != nil {
		return err
	}
	conns, err := dialConns(cl.primary.addr, ks, spec.mix, r.seed)
	if err != nil {
		cl.stop()
		return err
	}
	w, err := r.measureKV(cl, conns, spec, dur)
	if err == nil && spec.durable {
		err = r.crashAndVerify(cl, conns, ks)
	}
	closeConns(conns)
	cl.stop()
	if err != nil {
		return err
	}
	r.res.Untraced = map[string]Metric{}
	latencyMetrics(w, r.res.Untraced)
	for _, q := range []string{"p50", "p99"} {
		if m, ok := r.res.Untraced["txn_"+q+"_us"]; ok {
			r.res.Metrics["store.txn_"+q+"_us"] = m
		}
	}
	r.acked = [nKind]int64{}

	// 2. Traced, embedded.
	srv := server.New(server.Config{StoreShards: kvShards})
	dir := filepath.Join(r.work, "traced")
	if spec.durable {
		if _, err := srv.Store().EnableDurability(server.Durability{
			Dir: filepath.Join(dir, "primary"), Fsync: wal.ModeBatch,
			CheckpointEvery: 2 * time.Second, MaxChain: 2, CompactRatio: 0.5,
		}); err != nil {
			return err
		}
		if err := srv.EnableReplication(server.ReplConfig{SyncAck: true}); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tl := &tracedListener{Listener: ln, conns: map[string]*tracedConn{}}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(tl) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
		srv.Store().CloseDurability()
	}()
	addr := ln.Addr().String()
	if _, err := prefill(addr, ks); err != nil {
		return err
	}
	var follower *proc
	if spec.durable {
		follower, err = startPolyserve(r.polyserve, filepath.Join(r.logs, spec.name+"-traced-follower.log"), 60*time.Second,
			"-addr", "127.0.0.1:0", "-store-shards", fmt.Sprint(kvShards), "-quiet",
			"-wal-dir", filepath.Join(dir, "follower"), "-fsync", "batch", "-follow", addr)
		if err != nil {
			return err
		}
		defer follower.stop(5 * time.Second)
		if err := waitStreaming(follower.addr, 60*time.Second); err != nil {
			return err
		}
	}
	if conns, err = dialConns(addr, ks, spec.mix, r.seed); err != nil {
		return err
	}
	defer closeConns(conns)
	for _, g := range conns {
		g.trace = true
	}
	r.count(runWindow(conns, spec.rate, dur/6, 5*time.Second, 0))
	before, err := statsOf(addr)
	if err != nil {
		return err
	}
	var fbefore, fafter map[string]uint64
	if follower != nil {
		if fbefore, err = statsOf(follower.addr); err != nil {
			return err
		}
	}
	gc0, t0 := readGC(), nanotime()
	w = runWindow(conns, spec.rate, dur, 5*time.Second, 0)
	gc1, t1 := readGC(), nanotime()
	after, err := statsOf(addr)
	if err != nil {
		return err
	}
	if follower != nil {
		if fafter, err = statsOf(follower.addr); err != nil {
			return err
		}
	}
	r.count(w)
	r.checkSemantics(w, before, after, spec.durable)
	r.checkGenerator(w)
	latencyMetrics(w, r.res.Metrics)
	r.set("gen.late_p99_us", w.late.Quantile(0.99)/1e3, "us", w.late.Count())
	r.set("gen.backlog_max", float64(w.backlogMax), "count", 0)
	r.runtimeLayer(gc0, gc1)
	r.spanLayers(w, conns, tl)
	writes := w.done[kSet] + w.done[kIncr] + w.done[kTxn]
	r.engineLayers(before, after, w.completed(), w.done[kScan], writes)
	r.storeLayer(before, after, w)
	if spec.durable {
		r.walLayer(before, after, writes, time.Duration(t1-t0))
		r.replLayer(before, after, fbefore, fafter, tl.ackSamples(t0, t1))
		if err := r.verifyKV(addr, "embedded primary", conns, ks); err != nil {
			return err
		}
		h, err := walAppendProbe(filepath.Join(dir, "probe-wal"), dur/3)
		if err != nil {
			return err
		}
		r.set("wal.append_us.p50", h.Quantile(0.5)/1e3, "us", h.Count())
		r.set("wal.append_us.p99", h.Quantile(0.99)/1e3, "us", h.Count())
	} else {
		r.idle("wal.", "repl.", "store.txn_")
	}

	// 3. Layer probes over the workload's own requests.
	if err := r.probeStore(srv.Store(), ks, spec, dur/3); err != nil {
		return err
	}
	r.idle("engine.def.op_ns", "engine.weak.op_ns", "engine.snapshot.op_ns", "engine.irrevocable.op_ns", "engine.ops_per_s_1_worker")
	return nil
}

// spanLayers turns the window's client timestamps and the listener's
// server timestamps into spans and records, per class, the server's
// span (frame read to response write) and the network share (client
// span minus server span), and the client's self time: its span minus
// the encode, server and decode spans it covers.
func (r *runner) spanLayers(w *window, conns []*genConn, tl *tracedListener) {
	var srv, net [nClass]Hist
	var self Hist
	srvSpans := make(map[int][]Span, len(conns))
	for i, g := range conns {
		if tc := tl.lookup(g.c.LocalAddr().String()); tc != nil {
			srvSpans[i] = tc.serverSpans()
		}
	}
	for _, t := range w.traces {
		req := uint64(t.conn)<<48 | t.idx
		client := Span{Req: req, Name: "client", Start: t.sent, End: t.dec}
		children := []Span{
			{Req: req, Name: "wire.encode", Parent: "client", Start: t.sent, End: t.enc},
			{Req: req, Name: "wire.decode", Parent: "client", Start: t.recv, End: t.dec},
		}
		if ss := srvSpans[t.conn]; t.idx < uint64(len(ss)) {
			sp := ss[t.idx]
			sp.Req = req
			children = append(children, sp)
			srv[t.cls].Record(sp.Dur())
			net[t.cls].Record(client.Dur() - sp.Dur())
		}
		self.Record(SelfTime(client, children))
		if len(r.spans) < maxSpans {
			r.spans = append(r.spans, Span{Req: req, Name: "gen", Start: t.due, End: t.sent}, client)
			r.spans = append(r.spans, children...)
		}
	}
	for c, name := range classNames {
		r.set("server.conn_us."+name, srv[c].Quantile(0.5)/1e3, "us", srv[c].Count())
		r.set("server.net_us."+name, net[c].Quantile(0.5)/1e3, "us", net[c].Count())
	}
	r.set("client.self_us", self.Quantile(0.5)/1e3, "us", self.Count())
}

// storeLayer records cross-shard and shard-balance counters.
func (r *runner) storeLayer(before, after map[string]uint64, w *window) {
	x := delta(before, after, "xshard_txns")
	r.set("store.xshard_txns", x, "count", 0)
	r.set("store.xshard_abort_ratio", ratio(delta(before, after, "xshard_aborts"), x), "ratio", uint64(x))
	var ops []float64
	for i := 0; i < kvShards; i++ {
		ops = append(ops, delta(before, after, fmt.Sprintf("shard%d.ops", i)))
	}
	top, sum := 0.0, 0.0
	for _, o := range ops {
		top, sum = max(top, o), sum+o
	}
	r.set("store.shard_skew", ratio(top, sum/float64(len(ops))), "ratio", uint64(sum))
}

// walLayer records the primary's WAL counters over the window.
func (r *runner) walLayer(before, after map[string]uint64, writes int64, dur time.Duration) {
	d := func(name string) float64 { return delta(before, after, name) }
	r.set("wal.records_per_write", ratio(d("wal_records"), float64(writes)), "ratio", uint64(writes))
	r.set("wal.bytes_per_record", ratio(d("wal_bytes"), d("wal_records")), "B", uint64(d("wal_records")))
	r.set("wal.records_per_fsync", ratio(d("wal_records"), d("wal_fsyncs")), "ratio", uint64(d("wal_fsyncs")))
	r.set("wal.fsyncs_per_s", d("wal_fsyncs")/dur.Seconds(), "1/s", uint64(d("wal_fsyncs")))
	r.set("wal.checkpoints", d("wal_checkpoints"), "count", 0)
	r.set("wal.ckpt_delta_bytes", float64(after["ckpt_delta_bytes"]), "B", 0)
	r.set("wal.ckpt_base_bytes", float64(after["ckpt_base_bytes"]), "B", 0)
}

// replLayer records shipping, applying and acknowledging on the feed.
func (r *runner) replLayer(before, after, fbefore, fafter map[string]uint64, acks *Hist) {
	r.set("repl.shipped_records", delta(before, after, "repl_shipped_records"), "count", 0)
	r.set("repl.applied_records", delta(fbefore, fafter, "repl_applied_records"), "count", 0)
	// Records shipped during the window that the follower had not
	// applied by its end.
	r.set("repl.lag_records", delta(before, after, "repl_shipped_records")-delta(fbefore, fafter, "repl_applied_records"), "count", 0)
	reconnects := delta(fbefore, fafter, "repl_reconnects")
	r.set("repl.reconnects", reconnects, "count", 0)
	if reconnects != 0 {
		r.problem("follower reconnected %v times during the traced window", reconnects)
	}
	r.set("repl.ack_us.p50", acks.Quantile(0.5)/1e3, "us", acks.Count())
	r.set("repl.ack_us.p99", acks.Quantile(0.99)/1e3, "us", acks.Count())
}

// probeStore times, closed loop and in process, the wire codec and
// Store.ExecuteInto over a fresh copy of the workload's request stream
// (connection 0's), then measures SCAN fan-out from the shard
// routing counters.
func (r *runner) probeStore(st *server.Store, ks *keyspace, spec *kvSpec, budget time.Duration) error {
	s := newStream(ks, spec.mix, r.seed, 0)
	var codec, exec [nClass]Hist
	var bytes [nClass]int64
	var req, dec wire.Request
	var resp wire.Response
	var it inflight
	var frame []byte
	subOps := map[kind][]wire.Op{kTxn: txnSubOps}
	for end := time.Now().Add(budget); time.Now().Before(end); {
		s.next(&req, &it)
		c := kindClass[it.kind]
		t0 := nanotime()
		var err error
		if frame, err = wire.AppendRequestFrame(frame[:0], &req); err != nil {
			return err
		}
		if err := wire.DecodeRequestInto(&dec, frame[4:]); err != nil {
			return err
		}
		t1 := nanotime()
		st.ExecuteInto(&dec, &resp)
		t2 := nanotime()
		n := len(frame)
		if frame, err = wire.AppendResponseFrame(frame[:0], dec.Op, &resp); err != nil {
			return err
		}
		if _, err := wire.DecodeResponse(frame[4:], dec.Op, subOps[it.kind]); err != nil {
			return err
		}
		t3 := nanotime()
		codec[c].Record(t1 - t0 + t3 - t2)
		exec[c].Record(t2 - t1)
		bytes[c] += int64(n + len(frame))
		if err := resp.Err(); err != nil {
			r.problem("in-process %s: %v", dec.Op, err)
		}
	}
	for c, name := range classNames {
		r.set("wire.codec_ns."+name, codec[c].Quantile(0.5), "ns", codec[c].Count())
		r.set("wire.bytes."+name, ratio(float64(bytes[c]), float64(codec[c].Count())), "B", codec[c].Count())
		r.set("store.execute_us."+name+".p50", exec[c].Quantile(0.5)/1e3, "us", exec[c].Count())
		r.set("store.execute_us."+name+".p99", exec[c].Quantile(0.99)/1e3, "us", exec[c].Count())
	}

	// SCAN fan-out: shards each SCAN's request touched, by the routing
	// counters STATS exports.
	shardOps := func() float64 {
		var resp wire.Response
		st.ExecuteInto(&wire.Request{Op: wire.OpStats, Sem: wire.SemDefault}, &resp)
		var n float64
		for _, c := range resp.Counters {
			if strings.HasPrefix(c.Name, "shard") && strings.HasSuffix(c.Name, ".ops") {
				n += float64(c.Value)
			}
		}
		return n
	}
	const scans = 200
	before := shardOps()
	for i := 0; i < scans; i++ {
		from := appendKey(nil, 'k', int(ks.zipf.Next(s.r)))
		st.ExecuteInto(&wire.Request{Op: wire.OpScan, Sem: wire.SemDefault, From: from, To: []byte("l"), Limit: scanLimit}, &resp)
	}
	r.set("store.shards_per_scan", (shardOps()-before)/scans, "count", scans)
	return nil
}

// walAppendProbe times Reserve+Commit+WaitDurable on a benchmark-owned
// log in the primary's mode (-fsync batch), with SET-sized records from
// two goroutines, for dur.
func walAppendProbe(dir string, dur time.Duration) (*Hist, error) {
	l, _, err := wal.Open(dir, wal.Options{Mode: wal.ModeBatch}, func([]wal.Op) error { return nil })
	if err != nil {
		return nil, err
	}
	payload := wal.AppendSet(nil, appendKey(nil, 'k', 0), appendVal(nil, appendKey(nil, 'k', 0), 0, 0))
	hs := make([]Hist, kvConns)
	errs := make([]error, kvConns)
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				t0 := nanotime()
				seq := l.Reserve(payload)
				l.Commit(seq)
				if err := l.WaitDurable(seq); err != nil {
					errs[i] = err
					return
				}
				hs[i].Record(nanotime() - t0)
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		return nil, err
	}
	for i := range hs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if i > 0 {
			hs[0].Merge(&hs[i])
		}
	}
	return &hs[0], nil
}
