package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aovlis"
	"aovlis/internal/mat"
)

const (
	// setupRuns is how many daemons a timed run launches to take the
	// median set-up time; the last one serves the traffic.
	setupRuns = 3
	// drainTimeout bounds the wait for a phase's last decisions.
	drainTimeout = 60 * time.Second
	// userHZ is the kernel's clock-tick rate for /proc/<pid>/stat times.
	userHZ = 100
)

// run is one benchmark invocation.
type run struct {
	wl    workload
	seed  int64
	dur   time.Duration
	bin   string
	dir   string
	w     *world
	tmpl  *aovlis.Detector
	pl    *planner
	d     *daemon
	cs    [2]*conn
	epoch time.Time
	env   map[string]string
}

func newRun(wl workload, seed int64, dur time.Duration, bin, work string) (*run, error) {
	bin, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	r := &run{wl: wl, seed: seed, dur: dur, bin: bin,
		dir: filepath.Join(work, fmt.Sprintf("run-%s-%d-%d", wl.name, seed, os.Getpid()))}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	if r.w, err = buildWorld(); err != nil {
		return nil, fmt.Errorf("building the training world: %w", err)
	}
	if r.tmpl, err = r.w.trainTemplate(false); err != nil {
		return nil, fmt.Errorf("training the reference detector: %w", err)
	}
	r.pl = newPlanner(seed, len(r.w.act))
	r.env = environment(bin)
	return r, nil
}

// environment records what the numbers depend on besides the code.
func environment(bin string) map[string]string {
	env := map[string]string{
		"simd":       mat.SIMDGEMM(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		env["gomaxprocs_env"] = v
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile(bin); err == nil {
		env["aovlisd_sha256"] = sha256Hex(b)
	}
	return env
}

func (r *run) launch(i int) (*daemon, error) {
	return startDaemon(r.bin, filepath.Join(r.dir, fmt.Sprintf("daemon-%d", i)), worldFlags())
}

// start launches daemons, keeps the last to serve, and opens the two
// streams; it returns the set-up times in seconds.
func (r *run) start(launches int) ([]float64, error) {
	var setups []float64
	for i := 0; i < launches; i++ {
		d, err := r.launch(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		if i == launches-1 {
			r.d = d
			break
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	r.epoch = time.Now()
	var err error
	r.cs, err = dialConns(r.d.addr, r.wl.ws, r.pl.ids, r.w, r.epoch, r.seed)
	return setups, err
}

// offer records arr in the schedule hash and runs it as one phase.
func (r *run) offer(arr []arrival) (phaseStats, error) {
	r.pl.record(r.w, arr)
	return phaseRun(r.cs, arr, r.epoch, drainTimeout)
}

// fixedPhase offers the fixed-rate phase as wl.rounds repeats of the
// workload's shape over the run's measured time, and returns each round's
// latencies and the segments it decided.
func (r *run) fixedPhase() (rounds [][]float64, decided int, inflightMax int64, err error) {
	d := r.dur / time.Duration(r.wl.rounds)
	for i := 0; i < r.wl.rounds; i++ {
		arr := r.pl.steady(d, r.wl.rate)
		if r.wl.peak > 0 {
			arr = r.pl.flash(d, r.wl.rate, r.wl.peak)
		}
		ps, err := r.offer(arr)
		if err != nil {
			return nil, 0, 0, err
		}
		lat := latencies(r.cs, ps.sp)
		rounds = append(rounds, lat)
		decided += len(lat)
		inflightMax = max(inflightMax, ps.inflightMax)
	}
	return rounds, decided, inflightMax, nil
}

// roundQuantile is the median over rounds of each round's q-quantile.
func roundQuantile(rounds [][]float64, q float64) float64 {
	var qs []float64
	for _, lat := range rounds {
		qs = append(qs, quantile(lat, q))
	}
	return median(qs)
}

// finish reads the daemon's peak RSS and shard placement, ends both
// streams, stops the daemon, and checks every verdict against the
// reference.
func (r *run) finish() (fin finished, err error) {
	if fin.rssMB, err = r.d.peakRSS(); err != nil {
		return fin, err
	}
	fin.shards, err = r.shardOf()
	if err != nil {
		return fin, err
	}
	for _, c := range r.cs {
		c.close(10 * time.Second)
	}
	if err := r.d.stop(); err != nil {
		return fin, err
	}
	if fin.ref, err = replayBoth(r.tmpl, r.w, r.cs, math.MaxInt); err != nil {
		return fin, err
	}
	for ch, c := range r.cs {
		vs, failed, first := check(c, fin.ref[ch])
		fin.verdicts[ch] = vs
		fin.failed += failed
		fin.attempted += len(c.idx)
		if first != "" {
			logf("verdict mismatch: %s", first)
		}
	}
	return fin, nil
}

type finished struct {
	rssMB             float64
	shards            map[string]int
	ref               [2]replay
	verdicts          [2][]verdict
	attempted, failed int
}

// shardOf reads which pool shard each channel landed on.
func (r *run) shardOf() (map[string]int, error) {
	resp, err := http.Get("http://" + r.d.addr + "/channels")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var stats []struct {
		Channel  string `json:"channel"`
		Shard    int    `json:"shard"`
		Observed uint64 `json:"observed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, fmt.Errorf("decoding /channels: %w", err)
	}
	out := make(map[string]int)
	for _, s := range stats {
		out[s.Channel] = s.Shard
	}
	return out, nil
}

func (r *run) cleanup() {
	for _, c := range r.cs {
		if c != nil {
			select {
			case <-c.done:
			default:
				c.close(time.Second)
			}
		}
	}
	if r.d != nil {
		r.d.stop()
	}
	os.RemoveAll(r.dir)
}

// timed is the untraced run: repeated set-up, a warm-up second, the fixed-rate
// phase (latency, CPU), then the verdict check. p99 is logged, not reported:
// across seeds on a shared two-core box it spread by 0.3-0.7 of its median,
// beyond the 25% a bound may allow. The same held for a stepped-rate
// capacity search, which also tripled the run time, so there is none.
func (r *run) timed() (result, error) {
	setups, err := r.start(setupRuns)
	if err != nil {
		return result{}, err
	}
	if _, err := r.offer(r.pl.steady(time.Second, r.wl.rate)); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	t0, err := r.d.cpuTicks()
	if err != nil {
		return result{}, err
	}
	rounds, n, _, err := r.fixedPhase()
	if err != nil {
		return result{}, fmt.Errorf("fixed-rate phase: %w", err)
	}
	t1, err := r.d.cpuTicks()
	if err != nil {
		return result{}, err
	}
	schedHash := r.pl.sum()
	fin, err := r.finish()
	if err != nil {
		return result{}, err
	}
	p50, p99 := roundQuantile(rounds, 0.50), roundQuantile(rounds, 0.99)
	cpu := float64(t1-t0) * 1e6 / userHZ / float64(n)
	logf("workload %s seed %d: env %v", r.wl.name, r.seed, r.env)
	logf("channels %v on shards %v; schedule sha256 %s; offered sha256 %s", r.pl.ids, fin.shards, schedHash, r.pl.sum())
	for i, lat := range rounds {
		logf("fixed round %d: %d segments, p50 %.3fms p99 %.3fms (%d samples beyond p99)",
			i, len(lat), quantile(lat, 0.5), quantile(lat, 0.99), len(lat)-int(math.Ceil(0.99*float64(len(lat)))))
	}
	logf("fixed phase: %d segments, median-round p50 %.3fms p99 %.3fms, cpu %d ticks", n, p50, p99, t1-t0)
	logf("set-up times %v s", setups)
	okFrac := float64(fin.attempted-fin.failed) / float64(fin.attempted)
	return result{
		Correct: fin.failed == 0, Attempted: fin.attempted, Failed: fin.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"p50_ms":         {p50, "ms"},
			"cpu_us_per_seg": {cpu, "us"},
			"peak_rss_mb":    {fin.rssMB, "MiB"},
			"ok_frac":        {okFrac, "fraction"},
		},
	}, nil
}
