package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polytm/internal/core"
	"polytm/internal/stm"
	"polytm/internal/structures"
)

const (
	engineContended = "engine-contended"
	engKeys         = 1024
)

// semNames are the engine's semantics in STATS order.
var semNames = [...]string{"def", "weak", "snapshot", "irrevocable"}
var semValues = [...]core.Semantics{core.Def, core.Weak, core.Snapshot, core.Irrevocable}

// engineStats renders a TM's counters under polyserve's STATS names,
// so engine metrics are computed the same way in and out of process.
func engineStats(s stm.StatsSnapshot) map[string]uint64 {
	m := map[string]uint64{
		"starts": s.Starts, "commits": s.Commits, "aborts": s.Aborts,
		"read_aborts": s.ReadAborts, "lock_aborts": s.LockAborts, "validate_aborts": s.ValidateAbort,
		"kills": s.Kills, "elastic_cuts": s.ElasticCuts, "irrevocables": s.Irrevocables,
		"reads": s.Reads, "writes": s.Writes,
	}
	for i, p := range semValues {
		c := s.Sem(p)
		m["starts."+semNames[i]] = c.Starts
		m["commits."+semNames[i]] = c.Commits
		m["aborts."+semNames[i]] = c.Aborts
	}
	return m
}

// engOp is one engine request class; its semantics is the one the
// paper's start(p) picks for it.
type engOp int

const (
	engGet   engOp = iota // snapshot Get
	engRange              // weak Range, limit 16
	engDef                // def Put or Delete
	engIrrev              // irrevocable Put
	nEngOp
)

var engOpClass = [nEngOp]int{clsRead, clsScan, clsWrite, clsWrite}
var engOpSem = [nEngOp]int{2, 1, 0, 3} // index into semNames

// engWorker is one closed-loop caller's measurements.
type engWorker struct {
	lat      [nClass]Hist
	sem      [len(semNames)]Hist
	ops      [nEngOp]int64
	done     atomic.Int64
	failed   int64
	problems []string
	spans    []Span
	_        [64]byte // keep workers' counters on separate cache lines
}

type engine struct {
	tm   *core.TM
	m    *structures.TSkipMap
	keys []string
	vals [2][]string // per worker: the value it writes under each key
}

// newEngine builds the TM and skip map and prefills a seeded half of
// the keys.
func newEngine(seed uint64) *engine {
	e := &engine{tm: core.New(core.Config{})}
	e.m = structures.NewTSkipMap(e.tm)
	e.keys = make([]string, engKeys)
	for i := range e.keys {
		e.keys[i] = string(appendKey(nil, 'k', i))
		for w := range e.vals {
			e.vals[w] = append(e.vals[w], fmt.Sprintf("%s:%d", e.keys[i], w))
		}
	}
	r := rand.New(rand.NewPCG(seed, 99))
	for _, i := range r.Perm(engKeys)[:engKeys/2] {
		e.m.Put(e.keys[i], e.vals[0][i], core.Def)
	}
	return e
}

// loop runs one closed-loop worker until stop is set: 50% snapshot
// Get, 20% weak Range (limit 16), 25% def Put/Delete, 5% irrevocable
// Put, uniform over the keys. Every result is checked.
func (e *engine) loop(w *engWorker, id int, seed uint64, stop *atomic.Bool, trace bool) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(seed, uint64(id)+7))
	var reqs uint64
	for !stop.Load() {
		p, ki := r.IntN(100), r.IntN(engKeys)
		key := e.keys[ki]
		op := engIrrev
		switch {
		case p < 50:
			op = engGet
		case p < 70:
			op = engRange
		case p < 95:
			op = engDef
		}
		t0 := nanotime()
		var err error
		switch op {
		case engGet:
			var v string
			var ok bool
			if v, ok, err = e.m.GetCtx(ctx, key, core.Snapshot); err == nil && ok && !strings.HasPrefix(v, key+":") {
				err = fmt.Errorf("Get %s returned %q", key, v)
			}
		case engRange:
			var kvs []structures.KV
			if kvs, err = e.m.RangeCtx(ctx, key, "", scanLimit, core.Weak); err == nil {
				err = checkRange(kvs, key, scanLimit)
			}
		case engDef:
			if r.IntN(2) == 0 {
				_, err = e.m.PutCtx(ctx, key, e.vals[id][ki], core.Def)
			} else {
				_, err = e.m.DeleteCtx(ctx, key, core.Def)
			}
		case engIrrev:
			_, err = e.m.PutCtx(ctx, key, e.vals[id][ki], core.Irrevocable)
		}
		t1 := nanotime()
		if err != nil {
			w.failed++
			if len(w.problems) < 8 {
				w.problems = append(w.problems, err.Error())
			}
			continue
		}
		w.lat[engOpClass[op]].Record(t1 - t0)
		w.sem[engOpSem[op]].Record(t1 - t0)
		w.ops[op]++
		w.done.Add(1)
		if trace && len(w.spans) < maxSpans/16 {
			reqs++
			w.spans = append(w.spans, Span{Req: uint64(id)<<48 | reqs, Name: "engine." + semNames[engOpSem[op]], Start: t0, End: t1})
		}
	}
}

// checkRange checks a Range result: at most limit rows, keys sorted,
// unique and at or after from, each value written under its key.
func checkRange(kvs []structures.KV, from string, limit int) error {
	if limit > 0 && len(kvs) > limit {
		return fmt.Errorf("Range %s: %d rows over limit %d", from, len(kvs), limit)
	}
	for i, kv := range kvs {
		if kv.Key < from || (i > 0 && kvs[i-1].Key >= kv.Key) {
			return fmt.Errorf("Range %s: row %d key %s out of order or bounds", from, i, kv.Key)
		}
		if !strings.HasPrefix(kv.Val, kv.Key+":") {
			return fmt.Errorf("Range row %s holds %q", kv.Key, kv.Val)
		}
	}
	return nil
}

// engPhase is the merged outcome of one closed-loop phase.
type engPhase struct {
	lat      [nClass]Hist
	sem      [len(semNames)]Hist
	ops      [nEngOp]int64
	rates    []float64 // completed ops per second in each 100 ms slice
	failed   int64
	problems []string
	spans    []Span
}

func (p *engPhase) completed() int64 {
	var n int64
	for _, o := range p.ops {
		n += o
	}
	return n
}

// merge adds o's measurements to p.
func (p *engPhase) merge(o *engPhase) {
	for c := range p.lat {
		p.lat[c].Merge(&o.lat[c])
	}
	for s := range p.sem {
		p.sem[s].Merge(&o.sem[s])
	}
	for i := range p.ops {
		p.ops[i] += o.ops[i]
	}
	p.rates = append(p.rates, o.rates...)
	p.failed += o.failed
	p.problems = append(p.problems, o.problems...)
	p.spans = append(p.spans, o.spans...)
}

// throughput is the median of the per-slice rates, which a passing
// disturbance on the machine moves less than a whole-phase mean.
func (p *engPhase) throughput() float64 { return median(p.rates) }

// run drives n closed-loop workers for dur.
func (e *engine) run(n int, dur time.Duration, seed uint64, trace bool) *engPhase {
	ws := make([]*engWorker, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = new(engWorker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.loop(ws[i], i, seed, &stop, trace)
		}()
	}
	ph := new(engPhase)
	const slice = 100 * time.Millisecond
	total := func() (s int64) {
		for _, w := range ws {
			s += w.done.Load()
		}
		return s
	}
	prev, prevT := total(), time.Now()
	for end := time.Now().Add(dur); time.Now().Before(end); {
		time.Sleep(slice)
		cur, now := total(), time.Now()
		ph.rates = append(ph.rates, float64(cur-prev)/now.Sub(prevT).Seconds())
		prev, prevT = cur, now
	}
	stop.Store(true)
	wg.Wait()
	for _, w := range ws {
		for c := range w.lat {
			ph.lat[c].Merge(&w.lat[c])
		}
		for s := range w.sem {
			ph.sem[s].Merge(&w.sem[s])
		}
		for o := range w.ops {
			ph.ops[o] += w.ops[o]
		}
		ph.failed += w.failed
		ph.problems = append(ph.problems, w.problems...)
		ph.spans = append(ph.spans, w.spans...)
	}
	return ph
}

// alternate runs rounds of one second, each a 1-worker sub-phase (30%)
// then a 2-worker one, until total has passed. The machine's speed
// drifts over seconds; interleaving makes a slow stretch weigh on both
// worker counts alike, and the medians over all rounds' 100 ms slices
// repeat from run to run where one long phase each does not. For the
// same reason each round starts by timing one more set-up into setups.
// It returns the merged phases and the CPU time the 2-worker sub-phases
// used.
func (e *engine) alternate(total time.Duration, seed uint64, trace bool, setups *[]float64) (one, two *engPhase, cpu2 float64, err error) {
	const round = time.Second
	one, two = new(engPhase), new(engPhase)
	for i := uint64(0); time.Duration(i)*round < total; i++ {
		t0 := time.Now()
		newEngine(seed)
		*setups = append(*setups, time.Since(t0).Seconds())
		one.merge(e.run(1, round*3/10, seed+2*i, trace))
		c0, err := procCPUSeconds(0)
		if err != nil {
			return nil, nil, 0, err
		}
		two.merge(e.run(2, round-round*3/10, seed+2*i+1, trace))
		c1, err := procCPUSeconds(0)
		if err != nil {
			return nil, nil, 0, err
		}
		cpu2 += c1 - c0
	}
	return one, two, cpu2, nil
}

// runEngine runs engine-contended: set-up, a warm-up round, then
// --seconds of alternating 1-worker and 2-worker sub-phases; setup_s is
// the median of the first set-up and one more per round. A traced
// run first spends half of --seconds on the same, untraced, as the
// overhead baseline.
func (r *runner) runEngine() error {
	r.res.Env.Loop = "closed (library callers that each wait for their result; 1 and 2 workers, alternating)"
	t0 := time.Now()
	e := newEngine(r.seed)
	setups := []float64{time.Since(t0).Seconds()}

	// A discarded warm-up round: the first second runs slower (caches,
	// heap growth) and would otherwise count against whichever phase
	// comes first.
	warm1, warm2, _, err := e.alternate(time.Second, r.seed+2<<32, false, &setups)
	if err != nil {
		return err
	}
	phases := []*engPhase{warm1, warm2}
	total := time.Duration(r.seconds) * time.Second
	if r.trace {
		base1, base2, _, err := e.alternate(total/2, r.seed, false, &setups)
		if err != nil {
			return err
		}
		phases = append(phases, base1, base2)
		r.res.Untraced = map[string]Metric{}
		engineLatencies(base2, r.res.Untraced)
		total /= 2
	}
	before, gc0 := engineStats(e.tm.Stats()), readGC()
	stopRSS := sampleRSS(0)
	one, two, cpu2, err := e.alternate(total, r.seed+1<<32, r.trace, &setups)
	if err != nil {
		return err
	}
	rssMed, rssN := stopRSS()
	after, gc1 := engineStats(e.tm.Stats()), readGC()
	phases = append(phases, one, two)
	r.set("rss_mb", rssMed, "MB", uint64(rssN))
	r.set("cpu_us_per_op", cpu2/float64(two.completed())*1e6, "us", uint64(two.completed()))

	engineLatencies(two, r.res.Metrics)
	r.set("max_rps", max(one.throughput(), two.throughput()), "1/s", uint64(len(one.rates)+len(two.rates)))
	r.set("engine.ops_per_s_1_worker", one.throughput(), "1/s", uint64(len(one.rates)))
	rss, err := statusMB(0, "VmHWM")
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MB", 0)
	r.set("setup_s", median(setups), "s", uint64(len(setups)))

	for _, ph := range phases {
		r.res.Attempted += ph.completed() + ph.failed
		r.res.Failed += ph.failed
		for _, p := range ph.problems {
			r.problem("%s", p)
		}
	}
	// The paper's guarantees: snapshot and irrevocable never abort.
	for _, s := range []string{"snapshot", "irrevocable"} {
		if n := delta(before, after, "aborts."+s); n != 0 {
			r.problem("%v %s aborts (must be 0)", n, s)
		}
	}
	var commits float64
	for _, s := range semNames {
		commits += delta(before, after, "commits."+s)
	}
	if measured := one.completed() + two.completed(); commits != float64(measured) {
		r.problem("per-semantics commits sum to %v, %d ops completed", commits, measured)
	}
	if err := checkRange(e.m.Range("", "", 0, core.Def), "", 0); err != nil {
		r.problem("final Range: %v", err)
	}

	if r.trace {
		for i, s := range semNames {
			r.set("engine."+s+".op_ns.p50", two.sem[i].Quantile(0.5), "ns", two.sem[i].Count())
			r.set("engine."+s+".op_ns.p99", two.sem[i].Quantile(0.99), "ns", two.sem[i].Count())
		}
		r.engineLayers(before, after, one.completed()+two.completed(), one.ops[engRange]+two.ops[engRange],
			one.ops[engDef]+two.ops[engDef]+one.ops[engIrrev]+two.ops[engIrrev])
		r.runtimeLayer(gc0, gc1)
		r.idle("wire.", "server.", "client.", "store.", "wal.", "repl.", "gen.")
		for _, ph := range phases {
			r.spans = append(r.spans, ph.spans[:min(len(ph.spans), maxSpans-len(r.spans))]...)
		}
	}
	return nil
}

// engineLatencies records a phase's per-class percentiles (µs) and
// throughput into m.
func engineLatencies(ph *engPhase, m map[string]Metric) {
	for c, name := range classNames {
		h := &ph.lat[c]
		if h.Count() == 0 {
			continue
		}
		m[name+"_p50_us"] = Metric{h.Quantile(0.5) / 1e3, "us", h.Count()}
		m[name+"_p99_us"] = Metric{h.Quantile(0.99) / 1e3, "us", h.Count()}
	}
	m["ops_per_s"] = Metric{ph.throughput(), "1/s", uint64(len(ph.rates))}
}
