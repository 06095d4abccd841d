package main

// The app4 fixture: training app4 with the daemon's options takes far longer
// than a run may, so bulk-large serves a profile trained once per checkout
// with reduced options, saved through the profile codec, and loaded through
// it at set-up (the serve -tenant-dir path). It is rebuilt whenever its
// options change, because they are part of its file name.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/hmm"
	"adprom/internal/profile"
)

// fixtureOptions are the app4 fixture's training options: the daemon's
// window cap with a single Baum–Welch iteration over the first fixtureCases
// test cases. The clustered model keeps its full 496 states, which is what
// bulk-large measures.
var fixtureOptions = profile.Options{
	Train:           hmm.TrainOptions{MaxIters: 1},
	MaxTrainWindows: 1500,
}

func fixtureDescription() string {
	return fmt.Sprintf("app4 cases=%d max_iters=%d max_train_windows=%d",
		fixtureCases, fixtureOptions.Train.MaxIters, fixtureOptions.MaxTrainWindows)
}

// ensureFixture returns the fixture's path and a SHA-256 of the profile it
// holds, building it first when the build directory holds none. The digest
// covers the model, threshold, window and symbols rather than the file
// bytes, because the codec writes map entries in random order: two builds
// of the same profile differ as files but not in content.
func ensureFixture(buildDir string) (path, sum string, err error) {
	path = filepath.Join(buildDir, "fixtures", fmt.Sprintf("app4-c%d-i%d-w%d.prof",
		fixtureCases, fixtureOptions.Train.MaxIters, fixtureOptions.MaxTrainWindows))
	if _, err := os.Stat(path); err != nil {
		if err := buildFixture(path); err != nil {
			return "", "", fmt.Errorf("building the app4 fixture: %w", err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	p, err := profile.Load(f)
	if err != nil {
		return "", "", fmt.Errorf("loading fixture %s: %w", path, err)
	}
	h := sha256.New()
	put := func(x float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(x)) }
	m := p.Model
	for _, x := range []int{m.N, m.M, p.WindowLen} {
		put(float64(x))
	}
	put(p.Threshold)
	for _, x := range m.Pi {
		put(x)
	}
	for _, rows := range [][][]float64{m.A, m.B} {
		for _, row := range rows {
			for _, x := range row {
				put(x)
			}
		}
	}
	for _, s := range p.Symbols {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return path, hex.EncodeToString(h.Sum(nil)), nil
}

func buildFixture(path string) error {
	start := time.Now()
	app, err := lookupApp("app4")
	if err != nil {
		return err
	}
	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		return err
	}
	p, _, err := core.Train(app.Prog, traces, fixtureOptions)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "app4-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := p.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	fmt.Printf("fixture  built %s (%s, %d states) in %.1fs\n", path, fixtureDescription(), p.Model.N, time.Since(start).Seconds())
	return nil
}
