package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Env records where and how a result was measured.
type Env struct {
	Workload       string  `json:"workload"`
	Seed           uint64  `json:"seed"`
	Seconds        int     `json:"seconds"`
	Trace          bool    `json:"trace"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Kernel         string  `json:"kernel"`
	Commit         string  `json:"commit"`
	SourceSHA256   string  `json:"source_sha256"`
	CPUStealFrac   float64 `json:"cpu_steal_frac"` // share of CPU time the hypervisor took during the run
	OfferedRPS     float64 `json:"offered_rps,omitempty"`
	LatencyLimitUS float64 `json:"latency_limit_us,omitempty"`
	Loop           string  `json:"loop"`
	Started        string  `json:"started"`
}

// Metric is one reported figure. N is the sample count behind a
// percentile or mean (0 for a count or a gauge).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n,omitempty"`
}

// Result is everything one benchmark run measured; it is written to a
// result file beside the printed summary.
type Result struct {
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Untraced holds, in a traced run, the same run's end-to-end
	// figures measured with tracing off (the overhead baseline).
	Untraced map[string]Metric `json:"untraced,omitempty"`
}

// WriteResult writes r as indented JSON to path, creating its directory.
func WriteResult(path string, r *Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResult reads a result file written by WriteResult.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &r, nil
}
