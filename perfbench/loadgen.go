package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"polytm/internal/wire"
)

// Request classes, as the end-to-end metrics name them.
const (
	clsRead  = iota // GET
	clsScan         // SCAN
	clsWrite        // single-key SET and INCR
	clsTxn          // 2-key cross-shard TXN
	nClass
)

var classNames = [nClass]string{"read", "scan", "write", "txn"}

// Request kinds the generator sends.
type kind uint8

const (
	kGet kind = iota
	kScan
	kSet
	kIncr
	kTxn
	nKind
)

var kindClass = [nKind]int{clsRead, clsScan, clsWrite, clsWrite, clsTxn}
var kindOp = [nKind]wire.Op{wire.OpGet, wire.OpScan, wire.OpSet, wire.OpIncr, wire.OpTxn}
var txnSubOps = []wire.Op{wire.OpSet, wire.OpSet}

const (
	keyLen    = 16  // every key is one prefix letter plus 15 digits
	valLen    = 100 // every value is padded to this length
	scanLimit = 16
	scanSpan  = 64 // a SCAN covers [key(i), key(i+scanSpan))
)

// mix is a request mix in percent (sums to 100).
type mix [nKind]int

// keyspace is a kv workload's data layout: nkeys "k" keys under a
// zipfian popularity, counters "c" keys hit by INCR, and pairs of "t"
// keys on different store shards that TXN writes together.
type keyspace struct {
	nkeys    int
	zipf     *Zipf
	nconn    int
	counters int
	pairs    [][2]int
}

func newKeyspace(nkeys, nconn, counters, npairs, shards int, seed uint64) *keyspace {
	ks := &keyspace{nkeys: nkeys, zipf: NewZipf(uint64(nkeys), 0.99, seed), nconn: nconn, counters: counters}
	// TXN pairs: consecutive "t" keys whose hashes land on different
	// shards, so every TXN commits through the cross-shard protocol.
	var a, b [keyLen]byte
	for i := 0; len(ks.pairs) < npairs; i++ {
		if shardOf(appendKey(a[:0], 't', i), shards) != shardOf(appendKey(b[:0], 't', i+1), shards) {
			ks.pairs = append(ks.pairs, [2]int{i, i + 1})
			i++
		}
	}
	return ks
}

// shardOf mirrors polyserve's routing of a uniform table: FNV-1a 64 of
// the key modulo the shard count. STATS' xshard_txns confirms it.
func shardOf(key []byte, shards int) int {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int(h % uint64(shards))
}

// appendKey appends the 16-byte key prefix+%015d.
func appendKey(dst []byte, prefix byte, i int) []byte {
	dst = append(dst, prefix)
	var num [20]byte
	d := strconv.AppendInt(num[:0], int64(i), 10)
	for n := len(d); n < keyLen-1; n++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// appendVal appends a 100-byte value that starts with the key it is
// stored under, then the writer and its sequence number, so a reader
// can check a value belongs to its key and find which write it was.
func appendVal(dst, key []byte, conn int, seq uint64) []byte {
	start := len(dst)
	dst = append(dst, key...)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(conn), 10)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, seq, 16)
	for len(dst)-start < valLen {
		dst = append(dst, '.')
	}
	return dst
}

// stream is one connection's deterministic request sequence: the same
// seed and connection index give the same requests in the same order,
// whatever the timing.
type stream struct {
	ks    *keyspace
	cum   [nKind]int
	r     *rand.Rand
	conn  int
	seq   uint64
	kbuf  []byte
	k2buf []byte
	vbuf  []byte
	batch [2]wire.Request
}

func newStream(ks *keyspace, m mix, seed uint64, conn int) *stream {
	s := &stream{ks: ks, r: rand.New(rand.NewPCG(seed, uint64(conn)+1)), conn: conn}
	acc := 0
	for k := range m {
		acc += m[k]
		s.cum[k] = acc
	}
	return s
}

// next fills req (reusing the stream's buffers: valid until the next
// call) and the in-flight record describing it.
func (s *stream) next(req *wire.Request, it *inflight) {
	p := s.r.IntN(100)
	k := kGet
	for k < nKind-1 && p >= s.cum[k] {
		k++
	}
	s.seq++
	*req = wire.Request{Op: kindOp[k], Sem: wire.SemDefault}
	it.kind, it.seq = k, s.seq
	switch k {
	case kGet:
		it.key = int32(s.ks.zipf.Next(s.r))
		s.kbuf = appendKey(s.kbuf[:0], 'k', int(it.key))
		req.Key = s.kbuf
	case kScan:
		it.key = int32(s.ks.zipf.Next(s.r))
		s.kbuf = appendKey(s.kbuf[:0], 'k', int(it.key))
		s.k2buf = appendKey(s.k2buf[:0], 'k', int(it.key)+scanSpan)
		req.From, req.To, req.Limit = s.kbuf, s.k2buf, scanLimit
	case kSet:
		// Each key is written by one connection only (its index modulo
		// the connection count), so "the last acknowledged SET" of a
		// key is well defined: responses on one connection are ordered.
		i := int(s.ks.zipf.Next(s.r))
		i += (s.conn - i%s.ks.nconn + s.ks.nconn) % s.ks.nconn
		if i >= s.ks.nkeys {
			i -= s.ks.nconn
		}
		it.key = int32(i)
		s.kbuf = appendKey(s.kbuf[:0], 'k', i)
		s.vbuf = appendVal(s.vbuf[:0], s.kbuf, s.conn, s.seq)
		req.Key, req.Val = s.kbuf, s.vbuf
	case kIncr:
		it.key = int32(s.r.IntN(s.ks.counters))
		s.kbuf = appendKey(s.kbuf[:0], 'c', int(it.key))
		req.Key, req.Delta = s.kbuf, 1
	case kTxn:
		it.key = int32(s.r.IntN(len(s.ks.pairs)))
		pr := s.ks.pairs[it.key]
		s.kbuf = appendKey(s.kbuf[:0], 't', pr[0])
		s.k2buf = appendKey(s.k2buf[:0], 't', pr[1])
		s.vbuf = appendVal(s.vbuf[:0], []byte("pair"), s.conn, s.seq)
		s.batch[0] = wire.Request{Op: wire.OpSet, Key: s.kbuf, Val: s.vbuf}
		s.batch[1] = wire.Request{Op: wire.OpSet, Key: s.k2buf, Val: s.vbuf}
		req.Batch = s.batch[:]
	}
}

// inflight describes one sent request awaiting its response.
type inflight struct {
	w    *winStats
	due  int64 // when the schedule said to send it
	sent int64 // when the generator started sending it
	enc  int64 // when its frame was encoded (traced runs)
	idx  uint64
	seq  uint64
	key  int32
	kind kind
}

// reqTrace is one traced request's client-side timestamps; the traced
// run turns them into spans.
type reqTrace struct {
	conn                      int
	idx                       uint64 // frame index on its connection
	cls                       int
	due, sent, enc, recv, dec int64
}

// maxTraces caps the requests one window traces per connection, and
// maxSpans the spans a run writes out, so a traced run's memory and
// span file stay bounded.
const (
	maxTraces = 200_000
	maxSpans  = 100_000
)

// winStats is one connection's measurements over one window. The
// sender owns late/sent/backlog; the receiver owns the rest.
type winStats struct {
	// receiver side
	lat      [nClass]Hist
	all      Hist
	done     [nKind]int64
	failed   int64
	lastDone int64 // when the last response was recorded
	problems []string
	traces   []reqTrace
	// sender side
	late       Hist
	sent       int64
	backlogMax int64
	endBacklog int64
	aborted    bool
}

func (w *winStats) problem(format string, args ...any) {
	if len(w.problems) < 8 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// clockBase anchors nanotime: a monotonic nanosecond clock shared by
// the generator and the traced listener.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// sleepUntil blocks the calling OS thread until the monotonic clock
// reaches t. Go's timers wake idle processors with millisecond
// granularity, which at tens of thousands of requests per second would
// make the generator measure its own lateness; a nanosleep on a thread
// with a 1µs timer slack wakes within a few microseconds.
func sleepUntil(t int64) {
	for {
		d := t - nanotime()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

const prSetTimerSlack = 29 // prctl(2) PR_SET_TIMERSLACK

// maxInflight bounds one connection's in-flight queue: far more than a
// healthy window holds (rate × latency limit), so hitting it means the
// server has stalled and the window is already a failure.
const maxInflight = 1 << 16

// genConn is one generator connection: a pacing sender and a receiver
// goroutine over one socket, requests pipelined in between.
type genConn struct {
	c    net.Conn
	bw   *bufio.Writer
	st   *stream
	q    chan inflight
	nreq uint64 // frames sent (sender-owned)
	out  []byte

	outstanding atomic.Int64
	recvDone    chan struct{}
	recvErr     error
	trace       bool

	// verification state, receiver-owned
	lastSet   map[int32]uint64
	incrAcked []int64
	lastIncr  []int64
	txnAcked  int64
}

func dialGen(addr string, st *stream, counters int) (*genConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	g := &genConn{
		c: c, bw: bufio.NewWriterSize(c, 64<<10), st: st,
		q:         make(chan inflight, maxInflight),
		recvDone:  make(chan struct{}),
		lastSet:   make(map[int32]uint64),
		incrAcked: make([]int64, counters),
		lastIncr:  make([]int64, counters),
	}
	go g.receive()
	return g, nil
}

// close shuts the socket and waits for the receiver to exit.
func (g *genConn) close() {
	g.c.Close()
	<-g.recvDone
}

// sendWindow sends on the schedule due_k = start + (k+phase)·interval
// until end, then reports the backlog it left. abortAt > 0 stops the
// window early once that many requests are outstanding.
func (g *genConn) sendWindow(w *winStats, start, end int64, interval, phase float64, abortAt int64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	var req wire.Request
	for k := 0; ; k++ {
		due := start + int64((float64(k)+phase)*interval)
		if due >= end {
			break
		}
		sleepUntil(due)
		now := nanotime()
		unsent := int64(float64(now-due) / interval)
		backlog := g.outstanding.Load() + unsent
		w.backlogMax = max(w.backlogMax, backlog)
		if abortAt > 0 && backlog > abortAt {
			w.aborted = true
			break
		}
		it := inflight{w: w, due: due, sent: now, idx: g.nreq}
		g.st.next(&req, &it)
		var err error
		if g.out, err = wire.AppendRequestFrame(g.out[:0], &req); err != nil {
			panic(fmt.Sprintf("encoding a generated request: %v", err)) // generator bug
		}
		if g.trace {
			it.enc = nanotime()
		}
		g.nreq++
		g.outstanding.Add(1)
		select {
		case g.q <- it:
		case <-g.recvDone: // the receiver hit a transport error
			g.outstanding.Add(-1)
			w.aborted = true
			return
		}
		if _, err := g.bw.Write(g.out); err != nil {
			w.aborted = true
			return
		}
		w.late.Record(now - due)
		w.sent++
		// Flush unless the next request is already due: a generator that
		// has fallen behind pipelines its backlog in one write.
		if start+int64((float64(k+1)+phase)*interval) > nanotime() {
			if err := g.bw.Flush(); err != nil {
				w.aborted = true
				return
			}
		}
	}
	w.endBacklog = g.outstanding.Load()
	if err := g.bw.Flush(); err != nil {
		w.aborted = true
	}
}

// receive reads responses in order, times each from its due time and
// checks it. On a transport error every queued request counts failed.
func (g *genConn) receive() {
	defer close(g.recvDone)
	br := bufio.NewReaderSize(g.c, 64<<10)
	var buf, kb, kb2 []byte
	for {
		var err error
		buf, err = wire.ReadFrameBuf(br, buf, 0)
		if err != nil {
			g.recvErr = err
			for {
				select {
				case it := <-g.q:
					it.w.failed++
					g.outstanding.Add(-1)
				default:
					return
				}
			}
		}
		now := nanotime()
		it := <-g.q
		g.record(it, buf, now, &kb, &kb2)
		// Decremented only after the response is recorded: a window
		// that sees no request outstanding may read its stats.
		g.outstanding.Add(-1)
	}
}

// record decodes, checks and times one response.
func (g *genConn) record(it inflight, payload []byte, now int64, kb, kb2 *[]byte) {
	w := it.w
	var subOps []wire.Op
	if it.kind == kTxn {
		subOps = txnSubOps
	}
	resp, err := wire.DecodeResponse(payload, kindOp[it.kind], subOps)
	dec := nanotime()
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		w.failed++
		w.problem("%s: %v", kindOp[it.kind], err)
		return
	}
	if msg := g.check(it, resp, kb, kb2); msg != "" {
		w.failed++
		w.problem("%s", msg)
		return
	}
	lat := dec - it.due
	w.lat[kindClass[it.kind]].Record(lat)
	w.all.Record(lat)
	w.done[it.kind]++
	w.lastDone = dec
	if g.trace && len(w.traces) < maxTraces {
		w.traces = append(w.traces, reqTrace{conn: g.st.conn, idx: it.idx, cls: kindClass[it.kind],
			due: it.due, sent: it.sent, enc: it.enc, recv: now, dec: dec})
	}
}

// check validates one successful response against what was sent and
// records what verification needs; it returns a non-empty message for
// a wrong output.
func (g *genConn) check(it inflight, resp *wire.Response, kb, kb2 *[]byte) string {
	switch it.kind {
	case kGet:
		*kb = appendKey((*kb)[:0], 'k', int(it.key))
		if resp.Status != wire.StatusOK || len(resp.Val) != valLen || !bytes.HasPrefix(resp.Val, *kb) {
			return fmt.Sprintf("GET %s: status %v value %q does not encode its key", *kb, resp.Status, resp.Val)
		}
	case kScan:
		*kb = appendKey((*kb)[:0], 'k', int(it.key))
		*kb2 = appendKey((*kb2)[:0], 'k', int(it.key)+scanSpan)
		if len(resp.Pairs) > scanLimit {
			return fmt.Sprintf("SCAN %s: %d rows over limit %d", *kb, len(resp.Pairs), scanLimit)
		}
		for i, p := range resp.Pairs {
			if bytes.Compare(p.Key, *kb) < 0 || bytes.Compare(p.Key, *kb2) >= 0 {
				return fmt.Sprintf("SCAN [%s,%s): row %s out of bounds", *kb, *kb2, p.Key)
			}
			if i > 0 && bytes.Compare(resp.Pairs[i-1].Key, p.Key) >= 0 {
				return fmt.Sprintf("SCAN %s: rows not sorted (%s then %s)", *kb, resp.Pairs[i-1].Key, p.Key)
			}
			if !bytes.HasPrefix(p.Val, p.Key) {
				return fmt.Sprintf("SCAN row %s: value %q does not encode its key", p.Key, p.Val)
			}
		}
	case kSet:
		g.lastSet[it.key] = it.seq
	case kIncr:
		if resp.Int <= g.lastIncr[it.key] {
			return fmt.Sprintf("INCR counter %d went from %d to %d", it.key, g.lastIncr[it.key], resp.Int)
		}
		g.lastIncr[it.key] = resp.Int
		g.incrAcked[it.key]++
	case kTxn:
		if len(resp.Batch) != 2 {
			return fmt.Sprintf("TXN: %d sub-responses, want 2", len(resp.Batch))
		}
		g.txnAcked++
	}
	return ""
}

// window is the merged outcome of one schedule run over all connections.
type window struct {
	rate       float64
	dur        time.Duration
	lat        [nClass]Hist
	all, late  Hist
	done       [nKind]int64
	sent       int64
	failed     int64
	backlogMax int64
	endBacklog int64
	aborted    bool
	problems   []string
	traces     []reqTrace
}

func (w *window) completed() int64 {
	var n int64
	for _, d := range w.done {
		n += d
	}
	return n
}

// runWindow offers rate requests per second, split evenly and evenly
// phased over the connections, for dur; then waits (up to drain) for
// every response. abortAt > 0 ends the window early on that backlog.
func runWindow(conns []*genConn, rate float64, dur, drain time.Duration, abortAt int64) *window {
	start := nanotime() + int64(time.Millisecond)
	end := start + int64(dur)
	interval := float64(len(conns)) / rate * 1e9
	ws := make([]*winStats, len(conns))
	var wg sync.WaitGroup
	for i, g := range conns {
		ws[i] = new(winStats)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.sendWindow(ws[i], start, end, interval, float64(i)/float64(len(conns)), abortAt)
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(drain)
	for _, g := range conns {
		for g.outstanding.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	}
	out := &window{rate: rate}
	for i, g := range conns {
		if n := g.outstanding.Load(); n > 0 {
			// Responses that never came: the connection is unusable.
			// Closing it makes the receiver count them failed.
			out.problems = append(out.problems, fmt.Sprintf("conn %d: %d responses missing after %v drain", i, n, drain))
			g.close()
		}
		select {
		case <-g.recvDone:
			out.problems = append(out.problems, fmt.Sprintf("conn %d: %v", i, g.recvErr))
		default:
		}
	}
	for _, w := range ws {
		for c := range w.lat {
			out.lat[c].Merge(&w.lat[c])
		}
		out.all.Merge(&w.all)
		out.late.Merge(&w.late)
		for k := range w.done {
			out.done[k] += w.done[k]
		}
		out.sent += w.sent
		out.failed += w.failed
		out.backlogMax = max(out.backlogMax, w.backlogMax)
		out.endBacklog += w.endBacklog
		out.aborted = out.aborted || w.aborted
		out.problems = append(out.problems, w.problems...)
		out.traces = append(out.traces, w.traces...)
	}
	// The window lasts from its first due time to its last response
	// (or, cut short, to the moment it was abandoned).
	last := int64(0)
	for _, w := range ws {
		last = max(last, w.lastDone)
	}
	if out.aborted || last == 0 {
		last = nanotime()
	}
	out.dur = time.Duration(last - start)
	return out
}
