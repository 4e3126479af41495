package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single run prints as the last line of standard
// output. The driver reads exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations by outcome. An operation that errored, was
// refused, timed out or returned a wrong answer is a failed operation: it
// contributes no latency sample and no completed statement.
type tally struct {
	Attempted int `json:"attempted"`
	Errored   int `json:"errored"`
	Refused   int `json:"refused"`
	TimedOut  int `json:"timed_out"`
	Wrong     int `json:"wrong"`
}

func (t tally) failed() int { return t.Errored + t.Refused + t.TimedOut + t.Wrong }

// failRatio is failed operations over attempted ones.
func (t tally) failRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

// manifest records what traffic a run sent, so that two runs of one seed can
// be shown to have sent the same.
type manifest struct {
	Seed       int64          `json:"seed"`
	Clients    int            `json:"clients"`
	SQLHashes  []string       `json:"sql_hashes"`  // one per distinct batch or pooled request, in generation order
	BatchSizes []int          `json:"batch_sizes"` // statements per distinct batch
	Strategies map[string]int `json:"strategies"`  // resolved subset-search strategy -> batches optimized
	TrafficSum string         `json:"traffic_sum"` // hash over every generated input, including never-repeated ones
}

func sqlHash(sql string) string {
	h := sha256.Sum256([]byte(sql))
	return hex.EncodeToString(h[:8])
}

// environment is recorded once per invocation.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commitID(),
	}
}

// commitID asks git for the checked-out commit; the driver's checkout is not
// a git repository, where the answer is "unknown".
func commitID() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Stderr = nil
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// run is one (workload, seed, trace mode) measurement as kept in result
// files: the driver-facing result plus what a reader needs to interpret it.
type run struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	result
	Tally    tally              `json:"tally"`
	Samples  int                `json:"samples"` // latency samples behind lat_* metrics
	Info     map[string]float64 `json:"info,omitempty"`
	Manifest manifest           `json:"manifest"`
}

// resultFile is the schema of out/result.json and baseline.json.
type resultFile struct {
	Schema int         `json:"schema"`
	Env    environment `json:"env"`
	Runs   []run       `json:"runs"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeResultFile(data)
}

func decodeResultFile(data []byte) (*resultFile, error) {
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, err
	}
	if rf.Schema != 1 {
		return nil, fmt.Errorf("result file schema %d, want 1", rf.Schema)
	}
	return &rf, nil
}
