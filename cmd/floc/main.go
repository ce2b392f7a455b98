// Command floc mines δ-clusters from a delimited matrix file with the
// FLOC algorithm and prints each discovered cluster's membership and
// statistics.
//
// Usage:
//
//	floc -k 10 -delta 15 [flags] matrix.csv
//
// The input is CSV by default (-tsv for tab-separated); empty cells
// and cells equal to -missing are missing entries. With -header the
// first record holds column labels; with -rowlabels the first field
// of each record is a row label. With -quarantine, malformed records
// are skipped (reported on stderr) instead of failing the load. A file
// starting with the DCMX magic (datagen -binary, or a deltaserve
// binary upload body) is loaded through the checksummed binary path
// instead; the text-dialect flags do not apply to it.
//
// # Interruption, checkpoints and resume
//
// A run interrupted by SIGINT, SIGTERM or an expired -deadline budget
// stops within one iteration,
// prints the best-so-far clustering, flushes a final checkpoint to
// the -checkpoint path (when given), and exits with status 3. With
// -checkpoint the run also snapshots every -checkpoint-every
// improving iterations and, when it completes, writes its final
// boundary (boundary 0, the seed checkpoint, for a run that never
// improves); -resume continues from such a snapshot and —
// same seed, same data — reproduces the uninterrupted run bit for
// bit. -fingerprint prints a deterministic run fingerprint instead of
// the human-readable report, so CI can diff a resumed run against a
// full one.
//
// # Warm-start reclustering
//
// -warm-start seeds the run from another run's checkpoint instead of
// cold seeding — the live-data path: recluster a matrix that gained
// rows or changed entries since the parent run, paying only the
// corrective iterations. The clustering flags (-k, -delta, -order,
// -seeding, …) must match the parent run's; the seed is taken from
// the checkpoint. When rows were appended since, -warm-rows says how
// many rows the matrix had when the checkpoint was written; new rows
// enter by best-residue placement before the first iteration. On an
// unchanged matrix a warm-started run reproduces the parent bit for
// bit.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	deltacluster "deltacluster"
)

func main() {
	var (
		k         = flag.Int("k", 10, "number of clusters to maintain")
		delta     = flag.Float64("delta", 0, "residue budget δ (required; ≈2.5–3× the residue of a genuine cluster)")
		alpha     = flag.Float64("alpha", 0, "occupancy threshold α for matrices with missing values (0 disables)")
		seed      = flag.Int64("seed", 1, "random seed")
		order     = flag.String("order", "weighted", "action order: fixed | random | weighted")
		seedMode  = flag.String("seeding", "auto", "seeding: random | anchored | auto")
		maxIter   = flag.Int("maxiter", 200, "iteration cap")
		workers   = flag.Int("workers", 0, "goroutines for the decide phase (0 = all cores); the result is bit-identical at any value")
		tsv       = flag.Bool("tsv", false, "tab-separated input")
		header    = flag.Bool("header", false, "first record holds column labels")
		rowLabels = flag.Bool("rowlabels", false, "first field of each record is a row label")
		missing   = flag.String("missing", "", "token marking missing entries (empty cells always count)")
		all       = flag.Bool("all", false, "print all k clusters, not only the significant ones")
		logT      = flag.Bool("log", false, "log-transform the matrix first (amplification → shifting coherence)")

		deadline    = flag.Duration("deadline", 0, "wall-clock budget for the run; when it expires the run stops within one iteration, prints the best-so-far clustering and exits 3 (0 = none)")
		quarantine  = flag.Bool("quarantine", false, "skip malformed input records instead of failing the load")
		checkpoint  = flag.String("checkpoint", "", "write resumable checkpoints to this file")
		ckEvery     = flag.Int("checkpoint-every", 1, "checkpoint every N improving iterations (with -checkpoint)")
		resume      = flag.String("resume", "", "resume from a checkpoint file written by -checkpoint")
		warmStart   = flag.String("warm-start", "", "warm-start from a parent run's checkpoint file; the matrix may have grown or changed since")
		warmRows    = flag.Int("warm-rows", 0, "rows the matrix had when the -warm-start checkpoint was written (0 = all current rows)")
		fingerprint = flag.Bool("fingerprint", false, "print a deterministic run fingerprint instead of the report")
	)
	flag.Parse()
	if flag.NArg() != 1 || *delta <= 0 {
		fmt.Fprintln(os.Stderr, "usage: floc -k K -delta D [flags] matrix.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *k < 1 {
		usageError("-k must be at least 1 (got %d)", *k)
	}
	if *maxIter < 1 {
		usageError("-maxiter must be at least 1 (got %d)", *maxIter)
	}
	if !(*alpha >= 0 && *alpha <= 1) { // NaN fails both comparisons
		usageError("-alpha must be within [0, 1] (got %g)", *alpha)
	}
	if *ckEvery < 1 {
		usageError("-checkpoint-every must be a positive iteration count (got %d)", *ckEvery)
	}
	if *deadline < 0 {
		usageError("-deadline must not be negative (got %v)", *deadline)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer func() { _ = f.Close() }() // read-only; nothing to recover from a close error

	m, err := loadMatrix(f, *header, *rowLabels, *missing, *quarantine, *tsv)
	if err != nil {
		fatal(err)
	}
	if *logT {
		if m, err = deltacluster.LogTransform(m); err != nil {
			fatal(err)
		}
	}

	cfg := deltacluster.DefaultFLOCConfig(*k, *delta)
	cfg.Seed = *seed
	cfg.MaxIterations = *maxIter
	cfg.Constraints.Occupancy = *alpha
	if *workers < 0 {
		fatal(fmt.Errorf("-workers = %d, want ≥ 0", *workers))
	}
	cfg.Workers = *workers
	switch *order {
	case "fixed":
		cfg.Order = deltacluster.FixedOrder
	case "random":
		cfg.Order = deltacluster.RandomOrder
	case "weighted":
		cfg.Order = deltacluster.WeightedRandomOrder
	default:
		fatal(fmt.Errorf("unknown order %q", *order))
	}
	switch *seedMode {
	case "random":
		cfg.SeedMode = deltacluster.SeedRandom
	case "anchored":
		cfg.SeedMode = deltacluster.SeedAnchored
	case "auto":
		cfg.SeedMode = deltacluster.SeedAuto
	default:
		fatal(fmt.Errorf("unknown seeding %q", *seedMode))
	}

	var runOpts deltacluster.FLOCRunOptions
	if *resume != "" && *warmStart != "" {
		usageError("-resume and -warm-start are mutually exclusive")
	}
	if *warmRows < 0 {
		usageError("-warm-rows must not be negative (got %d)", *warmRows)
	}
	if *resume != "" {
		ck, err := deltacluster.ReadCheckpointFile(*resume)
		if err != nil {
			fatal(err)
		}
		runOpts.Resume = ck
		fmt.Fprintf(os.Stderr, "floc: resuming from %s at iteration %d\n", *resume, ck.Iterations)
	}
	if *warmStart != "" {
		ck, err := deltacluster.ReadCheckpointFile(*warmStart)
		if err != nil {
			fatal(err)
		}
		// A warm run continues the parent's seeded trajectory; the other
		// clustering flags must match the parent's or the engine rejects
		// the checkpoint as foreign.
		cfg.Seed = ck.Seed
		runOpts.WarmStart = &deltacluster.FLOCWarmStart{Checkpoint: ck, ParentRows: *warmRows}
		fmt.Fprintf(os.Stderr, "floc: warm-starting from %s at iteration %d\n", *warmStart, ck.Iterations)
	}
	if *checkpoint != "" {
		runOpts.KeepFinalCheckpoint = true
		runOpts.CheckpointEvery = *ckEvery
		runOpts.OnCheckpoint = func(ck *deltacluster.FLOCCheckpoint) error {
			return deltacluster.WriteCheckpointFile(*checkpoint, ck)
		}
	}

	// SIGINT/SIGTERM cancel the run's context; the engine stops within
	// one iteration and returns its best-so-far clustering as a
	// *FLOCPartialResult. A second signal kills the process outright
	// (stop() below restores default handling before the slow prints).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		// The budget rides the same RunContext plumbing as the
		// signals: expiry stops the run at the next iteration boundary
		// with a *FLOCPartialResult whose Reason is "deadline".
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	res, err := deltacluster.FLOCWithOptions(ctx, m, cfg, runOpts)
	if err != nil {
		var pr *deltacluster.FLOCPartialResult
		if !errors.As(err, &pr) {
			fatal(err)
		}
		stop()
		fmt.Fprintf(os.Stderr, "floc: run stopped (%s) after %d iterations\n",
			pr.Reason, pr.Result.Iterations)
		if *checkpoint != "" {
			if werr := deltacluster.WriteCheckpointFile(*checkpoint, pr.Checkpoint); werr != nil {
				fmt.Fprintf(os.Stderr, "floc: writing final checkpoint: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "floc: checkpoint flushed to %s (resume with -resume %s)\n",
					*checkpoint, *checkpoint)
			}
		}
		report(m, pr.Result, cfg, *all, *fingerprint)
		os.Exit(3)
	}
	if *checkpoint != "" {
		if err := deltacluster.WriteCheckpointFile(*checkpoint, res.FinalCheckpoint); err != nil {
			fatal(err)
		}
	}
	report(m, res, cfg, *all, *fingerprint)
}

// loadMatrix reads the input matrix, sniffing the first bytes for the
// DCMX magic: a binary matrix (datagen -binary, or a saved deltaserve
// upload body) loads through the checksummed binary decoder, anything
// else through the delimited-text reader with the dialect flags.
func loadMatrix(f *os.File, header, rowLabels bool, missing string, quarantine, tsv bool) (*deltacluster.Matrix, error) {
	br := bufio.NewReader(f)
	if sniff, _ := br.Peek(4); string(sniff) == "DCMX" {
		return deltacluster.ReadMatrixBinary(br, 0)
	}
	opts := deltacluster.IOOptions{
		Header: header, RowLabels: rowLabels, MissingToken: missing,
		Quarantine: quarantine,
	}
	if tsv {
		opts.Comma = '\t'
	}
	m, qrep, err := deltacluster.ReadMatrixReport(br, opts)
	if qrep != nil && len(qrep.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "floc: quarantined %d of %d input records:\n",
			len(qrep.Quarantined), qrep.Total)
		for _, q := range qrep.Quarantined {
			fmt.Fprintf(os.Stderr, "  record %d: %s\n", q.Record, q.Reason)
		}
	}
	return m, err
}

// report prints either the human-readable cluster report or, with
// fingerprint set, a deterministic byte-stable summary (no durations,
// no volume sort) that two equivalent runs reproduce exactly.
func report(m *deltacluster.Matrix, res *deltacluster.FLOCResult, cfg deltacluster.FLOCConfig, all, fingerprint bool) {
	if fingerprint {
		printFingerprint(res)
		return
	}
	clusters := res.Clusters
	if !all {
		clusters = deltacluster.Significant(clusters, cfg.MaxResidue)
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a].Volume() > clusters[b].Volume() })

	fmt.Printf("matrix %dx%d (%.1f%% specified), k=%d, δ=%g, %d iterations, %v\n",
		m.Rows(), m.Cols(), 100*m.FillFraction(), cfg.K, cfg.MaxResidue, res.Iterations, res.Duration.Round(1e6))
	fmt.Printf("%d cluster(s)%s:\n\n", len(clusters), map[bool]string{true: "", false: " (significant)"}[all])
	for i, c := range clusters {
		st := c.Stats()
		fmt.Printf("cluster %d: %d rows x %d cols, volume %d, residue %.4g, diameter %.4g\n",
			i+1, st.NumRows, st.NumCols, st.Volume, st.Residue, st.Diameter)
		spec := c.Spec()
		fmt.Printf("  rows: %s\n", labelList(spec.Rows, m.RowLabels))
		fmt.Printf("  cols: %s\n", labelList(spec.Cols, m.ColLabels))
	}
}

// printFingerprint emits every determinism-relevant quantity of the
// run at full float precision. Two runs printing the same fingerprint
// went through bit-identical optimization states.
func printFingerprint(res *deltacluster.FLOCResult) {
	fmt.Printf("avg_residue %.17g\n", res.AvgResidue)
	fmt.Printf("iterations %d\n", res.Iterations)
	fmt.Printf("actions %d\n", res.ActionsApplied)
	fmt.Printf("gain_evals %d\n", res.GainEvaluations)
	fmt.Printf("trace")
	for _, v := range res.ResidueTrace {
		fmt.Printf(" %.17g", v)
	}
	fmt.Println()
	for i, c := range res.Clusters {
		spec := c.Spec()
		fmt.Printf("cluster %d rows %v cols %v residue %.17g\n", i, spec.Rows, spec.Cols, c.Residue())
	}
}

func labelList(idx []int, labels []string) string {
	out := ""
	for i, x := range idx {
		if i > 0 {
			out += " "
		}
		if labels != nil {
			out += labels[x]
		} else {
			out += fmt.Sprint(x)
		}
	}
	return out
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "floc: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floc:", err)
	os.Exit(1)
}
