// Command aovbench is the repository benchmark: it builds nothing itself
// (run.sh builds aovlisd and this program from the checkout), starts a fresh
// aovlisd for every run, drives it open-loop over two connections with the
// training world's test split, checks every verdict against a serial
// in-process replay, and prints one JSON result line.
//
//	bash aovbench/run.sh --workload ws-flash --seed 3 --seconds 16 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run and writes the span file
// and per-layer report under the work directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// workload is one traffic mix. Why each exists is in BENCHMARK.json.
type workload struct {
	name string
	ws   bool    // /live/{channel} WebSocket streams; false → NDJSON observe
	rate float64 // base offered rate, segments/s over both channels
	peak float64 // flash-crowd rate for the middle quarter (0 → steady)
	// rounds splits the fixed-rate phase into repeats of the traffic shape;
	// latency percentiles are taken per round and the median round is
	// reported, so one scheduler hiccup moves one round, not the result.
	// Each round keeps at least 1000 samples.
	rounds int
}

// Both workloads run the default daemon, which trains at start-up. Two
// planned workloads are not here. A durable daemon (-wal-dir, -ledger-dir)
// moved its p50 between 0.9 and 22 ms and its p99 between 3 and 126 ms from
// one minute to the next on the same code and a shared disk; the -load of
// an EnableUpdate detector at 200 seg/s reports a p99, CPU and capacity set
// by how many 1-2 s retrain stalls land in a run, which varied by a third
// between seeds. Neither holds a 25% bound, so the traced run measures the
// journal, the ledger and the updater in-process on the same inputs.
var workloads = []workload{
	{name: "ndjson-steady", rate: 2000, rounds: 8},
	{name: "ws-flash", ws: true, rate: 2000, peak: 6000, rounds: 8},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed: arrival times, channel ids and stream offsets")
		seconds = flag.Int("seconds", 16, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 → traced run reporting per-layer metrics")
		daemon  = flag.String("daemon", "", "path of the aovlisd binary under test")
		work    = flag.String("work", "", "work directory for daemon state, models and trace output")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *seconds < 4:
		fail(fmt.Errorf("--seconds %d: need at least 4", *seconds))
	case *daemon == "" || *work == "":
		fail(fmt.Errorf("--daemon and --work are required (use run.sh)"))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	for _, v := range []string{"AOVLIS_FASTMATH", "AOVLIS_NOSIMD"} {
		if os.Getenv(v) != "" {
			fail(fmt.Errorf("%s is set; the benchmark pins the default kernels", v))
		}
	}
	r, err := newRun(*wl, *seed, time.Duration(*seconds)*time.Second, *daemon, *work)
	if err != nil {
		fail(err)
	}
	defer r.cleanup()
	var res result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.timed()
	}
	if err != nil {
		r.cleanup()
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		r.cleanup()
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		r.cleanup()
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "aovbench:", err)
	os.Exit(1)
}

// logf writes a progress line to standard error.
func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "aovbench: "+format+"\n", args...)
}

// quantile returns the q-quantile of xs (nearest rank), sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
