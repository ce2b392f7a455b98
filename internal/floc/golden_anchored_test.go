package floc

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// The anchored-seeding goldens pin the default seeding mode (auto →
// anchored under VolumeGain) the way golden_kernel.json pins random
// seeding: testdata/golden_anchored.json was recorded from the engine
// before the seeding kernel was rewritten (sort-free carve,
// column-major refinement, candidates scored in one reused cluster),
// so any drift of a single seed member, member order or residue bit
// fails TestGoldenAnchoredSeeding. The inputs cover the complete
// matrix the column-major carve runs on, a reduced sparse ratings
// matrix under the occupancy constraint, the full-size ratings stand-in
// at the served configuration (two run seeds; recorded before seeding
// moved onto the specified-entry lists), and a dense matrix with a few
// missing cells that takes the row-wise fallback.
//
// Re-record only for an intentional behaviour change:
//
//	go test ./internal/floc/ -run TestGoldenAnchoredSeeding -update-golden

const goldenAnchoredPath = "testdata/golden_anchored.json"

// anchoredGoldenInput is one recorded input: a matrix builder and the
// run configuration (workers are set by the replay sweep).
type anchoredGoldenInput struct {
	name   string
	matrix func(t *testing.T) *matrix.Matrix
	config func() Config
}

func anchoredGoldenInputs() []anchoredGoldenInput {
	return []anchoredGoldenInput{
		{
			// A reduced yeast stand-in: complete, integer-valued,
			// configured like the Section 6.1.2 experiment (k = 2 ×
			// modules, δ = 2.5 × module noise).
			name: "yeast-dense",
			matrix: func(t *testing.T) *matrix.Matrix {
				ds, err := synth.Yeast(synth.YeastConfig{
					Genes: 500, Conditions: 17, Modules: 6,
					GenesPerModule: 40, ConditionsPerModule: 8,
					NoiseResidue: 8,
				}, 11)
				if err != nil {
					t.Fatal(err)
				}
				return ds.Matrix
			},
			config: func() Config {
				cfg := DefaultConfig(12, 20)
				cfg.MaxIterations = 20
				cfg.Seed = 3
				return cfg
			},
		},
		{
			// A reduced ratings stand-in: sparse, clustered with the
			// paper's MovieLens setting (δ = 1, α = 0.6).
			name: "ratings-sparse",
			matrix: func(t *testing.T) *matrix.Matrix {
				ds, err := synth.MovieLens(synth.MovieLensConfig{
					Users: 300, Movies: 400, Ratings: 24000,
					Groups: 6, MinPerUser: 20,
				}, 5)
				if err != nil {
					t.Fatal(err)
				}
				return ds.Matrix
			},
			config: func() Config {
				cfg := DefaultConfig(8, 1)
				cfg.Constraints.Occupancy = 0.6
				cfg.MaxIterations = 20
				cfg.Seed = 4
				return cfg
			},
		},
		ratingsFullInput(1),
		ratingsFullInput(2),
		{
			// A planted matrix with a handful of missing cells: dense
			// enough to look complete, but any missing entry sends the
			// carve down the row-wise path.
			name: "dense-few-missing",
			matrix: func(t *testing.T) *matrix.Matrix {
				return plantedMissingMatrix(t, 19, 240, 20, 4, 120, 0.004)
			},
			config: func() Config {
				cfg := DefaultConfig(6, 8)
				cfg.MaxIterations = 20
				cfg.Seed = 4
				return cfg
			},
		},
	}
}

// ratingsFullInput is the full-size ratings stand-in (943×1682, 5.5%
// specified) under the served MovieLens configuration (k = 10, δ = 1,
// α = 0.6, 40 iterations, anchored seeding) with the given run seed:
// the sparsity the served ratings jobs actually seed at, which the
// reduced 20%-filled leg above does not reach.
func ratingsFullInput(seed int64) anchoredGoldenInput {
	return anchoredGoldenInput{
		name: fmt.Sprintf("ratings-full-seed%d", seed),
		matrix: func(t *testing.T) *matrix.Matrix {
			ds, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return ds.Matrix
		},
		config: func() Config {
			cfg := DefaultConfig(10, 1)
			cfg.Constraints.Occupancy = 0.6
			cfg.MaxIterations = 40
			cfg.SeedMode = SeedAnchored
			cfg.Seed = seed
			return cfg
		},
	}
}

type anchoredGoldenCase struct {
	Name        string   `json:"name"`
	Seeds       string   `json:"seeds_sha256"`
	Fingerprint string   `json:"fingerprint_sha256"`
	Progress    string   `json:"progress_sha256"`
	Checkpoints []string `json:"checkpoints_sha256"`
}

// anchoredSeedBits hashes the phase-1 clustering of a run: every
// cluster's membership in internal order and its residue bits under
// both means.
func anchoredSeedBits(t *testing.T, m *matrix.Matrix, cfg Config) string {
	t.Helper()
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	e := newEngine(m, &cfg)
	var b strings.Builder
	for c, cl := range e.clusters {
		fmt.Fprintf(&b, "%d %s\n", c, clusterBits(cl))
	}
	return sha([]byte(b.String()))
}

func recordAnchoredCase(t *testing.T, in anchoredGoldenInput, workers int) anchoredGoldenCase {
	t.Helper()
	m := in.matrix(t)
	cfg := in.config()
	cfg.Workers = workers
	gc := anchoredGoldenCase{Name: in.name, Seeds: anchoredSeedBits(t, m, cfg)}
	gc.Fingerprint, gc.Progress, gc.Checkpoints = hashCapture(captureRun(t, m, cfg))
	return gc
}

// TestGoldenAnchoredSeeding replays every recorded input at workers 1
// and 2 (plus the CI matrix leg's FLOC_WORKERS) and asserts the seed
// clustering, result fingerprint, progress trace and checkpoint bytes
// hash to the recorded values.
func TestGoldenAnchoredSeeding(t *testing.T) {
	inputs := anchoredGoldenInputs()
	if *updateGolden {
		var cases []anchoredGoldenCase
		for _, in := range inputs {
			cases = append(cases, recordAnchoredCase(t, in, 1))
		}
		out, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenAnchoredPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAnchoredPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d anchored golden cases to %s", len(cases), goldenAnchoredPath)
		return
	}
	raw, err := os.ReadFile(goldenAnchoredPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to record): %v", err)
	}
	var golden []anchoredGoldenCase
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", goldenAnchoredPath, err)
	}
	if len(golden) != len(inputs) {
		t.Fatalf("golden file has %d cases, want %d (re-record?)", len(golden), len(inputs))
	}
	workers := []int{1, 2}
	if w := envWorkers(t); w > 2 {
		workers = append(workers, w)
	}
	for i, in := range inputs {
		in, want := in, golden[i]
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			if want.Name != in.name {
				t.Fatalf("golden case %d is %q, want %q", i, want.Name, in.name)
			}
			for _, w := range workers {
				got := recordAnchoredCase(t, in, w)
				if got.Seeds != want.Seeds {
					t.Fatalf("workers=%d: anchored seed clustering diverged from the recorded engine", w)
				}
				if got.Fingerprint != want.Fingerprint {
					t.Fatalf("workers=%d: result fingerprint diverged from the recorded engine", w)
				}
				if got.Progress != want.Progress {
					t.Fatalf("workers=%d: progress trace diverged from the recorded engine", w)
				}
				if strings.Join(got.Checkpoints, ",") != strings.Join(want.Checkpoints, ",") {
					t.Fatalf("workers=%d: checkpoint bytes diverged from the recorded engine (%d vs %d boundaries)",
						w, len(got.Checkpoints), len(want.Checkpoints))
				}
			}
		})
	}
}
