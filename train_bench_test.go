package aovlis

// Training-path benchmarks at the shape and world aovlisd trains on by
// default (-preset INF -train-sec 420 -classes 48 -seed 1, the
// DefaultConfig model): one TrainEpoch is the unit of the daemon's
// start-up cost, and one forced update.Updater retrain (300-sample buffer ×
// 5 epochs) is the stall the paper's dynamic update (Fig. 5) puts on the
// shard worker that triggers it. BENCH.md §11 records both.

import (
	"math/rand"
	"sync"
	"testing"

	"aovlis/internal/core"
	"aovlis/internal/dataset"
	"aovlis/internal/synth"
	"aovlis/internal/update"
)

var daemonWorld struct {
	once    sync.Once
	cfg     Config
	samples []core.Sample
	err     error
}

// daemonShapeFixture builds aovlisd's default training world once: the
// INF stream it trains on, the DefaultConfig detector shape, and the
// detector's 75% training split of the q-windowed samples.
func daemonShapeFixture(b *testing.B) (Config, []core.Sample) {
	b.Helper()
	daemonWorld.once.Do(func() {
		dcfg := dataset.DefaultConfig(synth.INF())
		dcfg.TrainSec, dcfg.TestSec = 420, 64
		dcfg.Classes = 48
		dcfg.Seed = 1
		ds, err := dataset.Build(dcfg)
		if err != nil {
			daemonWorld.err = err
			return
		}
		cfg := DefaultConfig(48, dcfg.Audience.Dim())
		cfg.Epochs, cfg.Seed = 10, 1
		samples, err := core.BuildSamples(ds.TrainActions, ds.TrainAudience, cfg.SeqLen)
		if err != nil {
			daemonWorld.err = err
			return
		}
		daemonWorld.cfg, daemonWorld.samples = cfg, samples[:len(samples)*3/4]
	})
	if daemonWorld.err != nil {
		b.Fatal(daemonWorld.err)
	}
	return daemonWorld.cfg, daemonWorld.samples
}

// BenchmarkTrainEpochDaemonShape measures one CLSTM training epoch at the
// daemon's default shape and world; aovlisd's start-up runs ten of them.
func BenchmarkTrainEpochDaemonShape(b *testing.B) {
	cfg, train := daemonShapeFixture(b)
	model, err := core.NewModel(cfg.modelConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.TrainEpoch(train, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(train)), "samples/epoch")
}

// BenchmarkUpdaterRetrain measures one forced dynamic-update retrain at the
// daemon shape: the updater buffers 300 presumed-normal segments
// (untimed), and the timed Observe of the 300th runs the drift check,
// trains CLSTM_new for 5 epochs on the buffer and merges it
// (DriftThreshold 1 forces the update on every check).
func BenchmarkUpdaterRetrain(b *testing.B) {
	cfg, train := daemonShapeFixture(b)
	base, err := core.NewModel(cfg.modelConfig())
	if err != nil {
		b.Fatal(err)
	}
	ucfg := update.DefaultConfig()
	ucfg.MaxBuffer, ucfg.TrainEpochs, ucfg.DriftThreshold = 300, 5, 1
	if len(train) < ucfg.MaxBuffer {
		b.Fatalf("fixture has %d samples, need %d", len(train), ucfg.MaxBuffer)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u, err := update.New(base.Clone(), ucfg)
		if err != nil {
			b.Fatal(err)
		}
		// Interaction level 0 is below the initial threshold T = 1, so
		// every segment is buffered.
		for j := 0; j < ucfg.MaxBuffer-1; j++ {
			if _, err := u.Observe(train[j], 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res, err := u.Observe(train[ucfg.MaxBuffer-1], 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Updated {
			b.Fatalf("forced retrain did not update (drift sim %v)", res.DriftSim)
		}
	}
}
