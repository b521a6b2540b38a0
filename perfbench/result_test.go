package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestResultFileRoundTrip(t *testing.T) {
	in := &Result{
		Env: Env{
			Workload: "kv-read-mostly", Seed: 42, Seconds: 10, NProc: 2, GOMAXPROCS: 2,
			GoVersion: "go1.24.0", Kernel: "6.1", Commit: "abc", SourceSHA256: "def",
			OfferedRPS: 20000, LatencyLimitUS: 10000, Loop: "open", Started: "2026-01-01T00:00:00Z",
		},
		Correct:   true,
		Attempted: 123456,
		Failed:    1,
		Problems:  []string{"one"},
		Metrics: map[string]Metric{
			"read_p50_us": {Value: 143.99912345678, Unit: "us", N: 90000},
			"setup_s":     {Value: 0.812734, Unit: "s"},
		},
		Untraced: map[string]Metric{"read_p50_us": {Value: 120.5, Unit: "us", N: 1}},
	}
	path := filepath.Join(t.TempDir(), "sub", "r.json")
	if err := WriteResult(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
	if _, err := ReadResult(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("reading a missing file must fail")
	}
}
