package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"time"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/synth"
)

// The training world the daemon is started with. The flags are passed to
// aovlisd explicitly so the in-process reference trains the same detector
// even if the daemon's defaults move.
const (
	worldPreset   = "INF"
	worldTrainSec = 420
	worldClasses  = 48
	worldEpochs   = 10
	worldSeed     = 1
)

func worldFlags() []string {
	return []string{"-preset", worldPreset, "-train-sec", strconv.Itoa(worldTrainSec),
		"-classes", strconv.Itoa(worldClasses), "-epochs", strconv.Itoa(worldEpochs),
		"-seed", strconv.Itoa(worldSeed)}
}

// world is the test split of the world the daemon trains on, with each
// segment's observation pre-encoded once so the client spends no CPU on
// JSON while it measures.
type world struct {
	ds       *dataset.Dataset
	act, aud [][]float64
	msg      [][]byte // JSON observation object per segment
}

func buildWorld() (*world, error) {
	preset, err := synth.PresetByName(worldPreset)
	if err != nil {
		return nil, err
	}
	cfg := dataset.DefaultConfig(preset)
	cfg.TrainSec, cfg.Classes, cfg.Seed = worldTrainSec, worldClasses, worldSeed
	ds, err := dataset.Build(cfg)
	if err != nil {
		return nil, err
	}
	w := &world{ds: ds, act: ds.TestActions, aud: ds.TestAudience}
	for i := range w.act {
		b, err := json.Marshal(observation{Action: w.act[i], Audience: w.aud[i]})
		if err != nil {
			return nil, err
		}
		w.msg = append(w.msg, b)
	}
	return w, nil
}

// observation mirrors live.Observation and the NDJSON request line.
type observation struct {
	Action   []float64 `json:"action"`
	Audience []float64 `json:"audience"`
}

// trainTemplate trains the detector aovlisd trains from worldFlags, with
// EnableUpdate at update.DefaultConfig() added when update is set.
func (w *world) trainTemplate(update bool) (*aovlis.Detector, error) {
	cfg := aovlis.DefaultConfig(worldClasses, w.ds.Config.Audience.Dim())
	cfg.Epochs = worldEpochs
	cfg.Seed = worldSeed
	cfg.EnableUpdate = update
	return aovlis.Train(w.ds.TrainActions, w.ds.TrainAudience, cfg)
}

// arrival is one scheduled segment: its due offset from phase start, its
// connection, and the world segment it carries.
type arrival struct {
	at  time.Duration
	ch  int
	idx int32
}

// planner hands out arrivals. Per channel the stream is the test split
// read cyclically from a seed-chosen offset, so the oracle and the daemon
// see one continuous stream per channel across all phases.
type planner struct {
	rng  *rand.Rand
	n    int
	off  [2]int
	pos  [2]int
	ids  [2]string
	hash hash.Hash
}

func newPlanner(seed int64, n int) *planner {
	rng := rand.New(rand.NewSource(seed))
	p := &planner{rng: rng, n: n, hash: sha256.New()}
	p.ids[0] = fmt.Sprintf("c%08x", rng.Uint32())
	for p.ids[1] = p.ids[0]; p.ids[1] == p.ids[0]; {
		p.ids[1] = fmt.Sprintf("c%08x", rng.Uint32())
	}
	// At least a third of the split apart, so the two channels never carry
	// the same segments at the same time.
	p.off[0] = rng.Intn(n)
	p.off[1] = (p.off[0] + n/3 + rng.Intn(n/3)) % n
	return p
}

// poisson draws a Poisson arrival schedule over dur at rateAt(t) by
// thinning at the envelope peak; each arrival goes to a uniformly random
// channel.
func (p *planner) poisson(dur time.Duration, peak float64, rateAt func(time.Duration) float64) []arrival {
	var out []arrival
	for t := 0.0; ; {
		t += p.rng.ExpFloat64() / peak
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		if p.rng.Float64()*peak > rateAt(at) {
			continue
		}
		ch := p.rng.Intn(2)
		out = append(out, arrival{at: at, ch: ch, idx: int32((p.off[ch] + p.pos[ch]) % p.n)})
		p.pos[ch]++
	}
	p.put(uint64(len(out)))
	return out
}

func (p *planner) steady(dur time.Duration, rate float64) []arrival {
	return p.poisson(dur, rate, func(time.Duration) float64 { return rate })
}

// flash is the loadgen flash-crowd shape: base rate, peak for the middle
// quarter.
func (p *planner) flash(dur time.Duration, base, peak float64) []arrival {
	lo, hi := dur*3/8, dur*5/8
	return p.poisson(dur, peak, func(t time.Duration) float64 {
		if t >= lo && t < hi {
			return peak
		}
		return base
	})
}

// record folds offered arrivals into the schedule hash, in the style of
// loadgen.Schedule.Hash: due time, channel and the features bit for bit.
func (p *planner) record(w *world, arr []arrival) {
	for i := range arr {
		a := &arr[i]
		p.put(uint64(a.at))
		p.put(uint64(a.ch))
		for _, v := range w.act[a.idx] {
			p.put(math.Float64bits(v))
		}
		for _, v := range w.aud[a.idx] {
			p.put(math.Float64bits(v))
		}
	}
}

func (p *planner) put(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	p.hash.Write(b[:])
}

func (p *planner) sum() string { return hex.EncodeToString(p.hash.Sum(nil)) }
