// Command perfbench is the repository benchmark: end-to-end latency of
// polyserve under open-loop load on two traffic mixes, throughput of
// the in-process engine under contention, and (with --trace 1) a
// per-layer breakdown of where each request's time goes.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload kv-read-mostly --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	kv-read-mostly       polyserve child process, 100k keys, zipfian
//	                     90% GET / 5% SCAN / 5% SET, open loop
//	kv-write-replicated  durable primary (-fsync batch, -repl-sync) plus
//	                     a follower, 35% GET / 5% SCAN / 35% SET /
//	                     15% INCR / 10% cross-shard TXN, open loop, then
//	                     SIGKILL + restart + verify
//	engine-contended     in-process core.TM + structures.TSkipMap,
//	                     1024 keys, closed loop with 1 and 2 workers
//
// Every run prints, with units and sample counts, each request class's
// p50 and p99 latency (timed from the request's due time), ops_per_s,
// max_rps, peak_rss_mb, rss_mb (median resident set over the measured
// window), cpu_us_per_op (server CPU time per request) and, for
// kv-write-replicated, TXN latency, disk bytes per user byte and
// recovery time. The last line of standard output is one JSON object:
// correct, attempted, failed and the metrics BENCHMARK.json declares
// (end_to_end with --trace 0, per_layer with --trace 1). The declared
// end-to-end metrics are the ones that repeat on a machine whose CPUs
// are shared with other guests: wall-clock latency and capacity swing
// with the CPU time a hypervisor steals (recorded as cpu_steal_frac),
// CPU time per request and memory do not. Every run also writes its
// full result, with the environment it ran in, under
// .bench_build/results. Any wrong output or failed semantics check
// makes the run exit 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runner holds one benchmark run's settings, paths and result.
type runner struct {
	root      string // repository checkout
	work      string // scratch directory for this run, removed at the end
	logs      string
	polyserve string
	seed      uint64
	seconds   int
	trace     bool
	spec      *benchSpec
	res       *Result
	spans     []Span
	acked     [nKind]int64 // acknowledged requests by kind, all windows
}

func main() {
	workload := flag.String("workload", "", "kv-read-mostly, kv-write-replicated or engine-contended")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1))
}

func run(workload string, seed uint64, seconds int, trace bool) int {
	defer killAll()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(1)
	}()

	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	spec, err := readBenchSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if seconds < 1 {
		return fail(fmt.Errorf("--seconds must be at least 1"))
	}
	build := filepath.Join(root, ".bench_build")
	r := &runner{
		root:      root,
		work:      filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
		logs:      filepath.Join(build, "logs"),
		polyserve: filepath.Join(build, "bin", "polyserve"),
		seed:      seed,
		seconds:   seconds,
		trace:     trace,
		spec:      spec,
	}
	r.res = &Result{Env: r.env(workload), Correct: true, Metrics: map[string]Metric{}}
	for _, d := range []string{r.work, r.logs} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fail(err)
		}
	}
	defer os.RemoveAll(r.work)

	steal0 := cpuTimes()
	switch workload {
	case kvReadMostly.name:
		err = r.runKV(&kvReadMostly)
	case kvWriteReplicated.name:
		err = r.runKV(&kvWriteReplicated)
	case engineContended:
		err = r.runEngine()
	default:
		err = fmt.Errorf("unknown --workload %q (want %s, %s or %s)", workload, kvReadMostly.name, kvWriteReplicated.name, engineContended)
	}
	if err != nil {
		return fail(err)
	}
	killAll()
	r.res.Env.CPUStealFrac = stealFrac(steal0, cpuTimes())

	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	out := map[string]map[string]any{}
	for _, m := range want {
		got, ok := r.res.Metrics[m.Name]
		if !ok {
			return fail(fmt.Errorf("BENCHMARK.json declares %s but the run did not measure it", m.Name))
		}
		if got.Unit != m.Unit {
			return fail(fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit))
		}
		out[m.Name] = map[string]any{"value": got.Value, "unit": got.Unit}
	}
	r.printReport(want)
	name := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, map[bool]int{false: 0, true: 1}[trace])
	if err := WriteResult(filepath.Join(build, "results", name+".json"), r.res); err != nil {
		return fail(err)
	}
	if len(r.spans) > 0 {
		if err := writeSpans(filepath.Join(build, "results", name+"-spans.jsonl"), r.spans); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.res.Correct,
		"attempted": r.res.Attempted,
		"failed":    r.res.Failed,
		"metrics":   out,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// benchSpec is the part of BENCHMARK.json the program checks itself
// against: every declared metric must be measured, in its unit.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// set records a metric.
func (r *runner) set(name string, v float64, unit string, n uint64) {
	r.res.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

// problem marks the run incorrect with a reason.
func (r *runner) problem(format string, args ...any) {
	r.res.Correct = false
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// count adds a window's requests to the run's attempted/failed totals
// and its problems to the run's.
func (r *runner) count(w *window) {
	r.res.Attempted += w.sent
	r.res.Failed += w.failed
	for k, n := range w.done {
		r.acked[k] += n
	}
	for _, p := range w.problems {
		r.problem("%s", p)
	}
	if w.failed > 0 {
		r.problem("%d of %d requests failed at %.0f req/s", w.failed, w.sent, w.rate)
	}
}

// env describes the machine, toolchain and source the run measures.
func (r *runner) env(workload string) Env {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return Env{
		Workload:     workload,
		Seed:         r.seed,
		Seconds:      r.seconds,
		Trace:        r.trace,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Kernel:       strings.TrimSpace(string(kernel)),
		Commit:       gitCommit(r.root),
		SourceSHA256: sourceDigest(r.root),
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuTimes reads the machine's aggregate CPU time counters from
// /proc/stat (user nice system idle iowait irq softirq steal ...).
func cpuTimes() []float64 {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		out = append(out, v)
	}
	return out
}

// stealFrac is the share of CPU time between two cpuTimes readings
// that a hypervisor gave to other guests: latency figures from a run
// with a large share measure the neighbours as much as the program.
func stealFrac(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(b[7]-a[7], total)
}

// gitCommit reads HEAD from .git without running git; a checkout that
// is not a git repository reports "none" (sourceDigest still
// identifies the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (paths and
// contents, in walk order), so results from different trees differ.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// printReport prints the environment, every measured metric with its
// unit and sample count (the declared ones first) and any problems.
func (r *runner) printReport(declared []struct{ Name, Unit string }) {
	e := r.res.Env
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", e.Workload, e.Seed, e.Seconds, e.Trace)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s source=%s cpu-steal=%.1f%%\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.Commit, e.SourceSHA256[:16], 100*e.CPUStealFrac)
	if e.OfferedRPS > 0 {
		fmt.Printf("load: %s loop, offered %.0f req/s, p99 latency limit %.0f us\n", e.Loop, e.OfferedRPS, e.LatencyLimitUS)
	} else {
		fmt.Printf("load: %s loop\n", e.Loop)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	isDeclared := func(n string) bool {
		return slices.ContainsFunc(declared, func(d struct{ Name, Unit string }) bool { return d.Name == n })
	}
	fmt.Printf("%-40s %16s %-8s %10s\n", "metric", "value", "unit", "samples")
	for _, pass := range []bool{true, false} {
		for _, n := range names {
			if isDeclared(n) != pass {
				continue
			}
			m := r.res.Metrics[n]
			samples := ""
			if m.N > 0 {
				samples = fmt.Sprint(m.N)
			}
			fmt.Printf("%-40s %16.4f %-8s %10s\n", n, m.Value, m.Unit, samples)
		}
	}
	if len(r.res.Untraced) > 0 {
		fmt.Println("tracing plus embedding overhead (traced run vs the same run untraced):")
		for _, n := range names {
			u, ok := r.res.Untraced[n]
			if !ok || u.Value == 0 {
				continue
			}
			t := r.res.Metrics[n]
			fmt.Printf("  %-38s untraced %12.4f  traced %12.4f %-6s gap %+7.1f%%\n", n, u.Value, t.Value, t.Unit, 100*(t.Value-u.Value)/u.Value)
		}
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", r.res.Attempted, r.res.Failed, r.res.Correct)
	for _, p := range r.res.Problems {
		fmt.Println("problem:", p)
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
