package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/steiner"
)

// steinerCmd constructs and verifies a Steiner (n, r, 3) system — a
// spherical geometry (q²+1, q+1, 3) for prime power q, SQS(8), or a doubled
// SQS(8·2^k) — and lists its blocks.
//
//	steiner -q 3        # the (10, 4, 3) system of the paper's Table 1
//	steiner -sqs8       # the (8, 4, 3) system of Appendix A
//	steiner -q 4 -stats # incidence statistics only, no block list
func steinerCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("steiner", stderr)
	q := fs.Int("q", 3, "prime power q for the spherical Steiner system")
	sqs8 := fs.Bool("sqs8", false, "build the Steiner (8,4,3) system instead of -q")
	double := fs.Int("double", -1, "build SQS(8·2^k) by k rounds of the doubling construction")
	statsOnly := fs.Bool("stats", false, "print statistics only, not the block list")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	var sys *steiner.System
	var err error
	switch {
	case *double >= 0:
		sys, err = steiner.SQSDoubled(*double)
	case *sqs8:
		sys = steiner.SQS8()
	default:
		sys, err = steiner.Spherical(*q)
	}
	if err == nil {
		err = sys.Verify()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintln(stdout, sys)
	fmt.Fprintf(stdout, "every point lies in %d blocks; every pair lies in %d blocks; every triple in exactly 1\n",
		sys.ElementCount(), sys.PairCount())
	if *statsOnly {
		return 0
	}
	fmt.Fprintln(stdout)
	for i, blk := range sys.Blocks {
		parts := make([]string, len(blk))
		for j, p := range blk {
			parts[j] = fmt.Sprint(p)
		}
		fmt.Fprintf(stdout, "%3d: {%s}\n", i+1, strings.Join(parts, ","))
	}
	return 0
}

// partitionCmd prints a tetrahedral block partition in the format of the
// paper's Table 1 (processor sets R_p, N_p, D_p), Table 2 (row-block sets
// Q_i) and Table 3 (the SQS(8) example). Indices are 1-based, as in the
// paper.
//
//	partition -q 3            # Tables 1 and 2 for the spherical system
//	partition -sqs8           # Table 3 (m=8, P=14)
//	partition -q 3 -qi=false  # suppress the Q_i table
func partitionCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("partition", stderr)
	q := fs.Int("q", 3, "prime power q for the spherical Steiner (q²+1, q+1, 3) system")
	sqs8 := fs.Bool("sqs8", false, "use the Steiner (8,4,3) system (Table 3) instead of -q")
	showQi := fs.Bool("qi", true, "also print the row-block sets Q_i (Table 2)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	part, err := buildPartition(*q, *sqs8)
	if err == nil {
		err = part.Validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "Tetrahedral block partition: m=%d row blocks, P=%d processors, |Rp|=%d\n\n",
		part.M, part.P, part.R)
	fmt.Fprintf(stdout, "%-4s %-22s %-40s %s\n", "p", "Rp", "Np", "Dp")
	for p := 0; p < part.P; p++ {
		fmt.Fprintf(stdout, "%-4d %-22s %-40s %s\n",
			p+1, intSet(part.Rp[p]), coordSet(part.Np[p]), coordSet(part.Dp[p]))
	}

	if *showQi {
		fmt.Fprintf(stdout, "\n%-4s %s\n", "i", "Qi")
		for i := 0; i < part.M; i++ {
			fmt.Fprintf(stdout, "%-4d %s\n", i+1, intSet(part.Qi[i]))
		}
	}
	return 0
}

// commschedCmd prints the point-to-point communication schedule of §7.2 in
// the style of the paper's Figure 1: one line per step, listing the
// simultaneous processor-to-processor transfers.
//
//	commsched -q 3      # 26-step schedule for the spherical system, P=30
//	commsched -sqs8     # the 12-step Figure 1 schedule, P=14
//	commsched -q 2 -v   # also list the row blocks each message carries
func commschedCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("commsched", stderr)
	q := fs.Int("q", 3, "prime power q for the spherical Steiner system")
	sqs8 := fs.Bool("sqs8", false, "use the Steiner (8,4,3) system (Figure 1) instead of -q")
	verbose := fs.Bool("v", false, "list the row blocks carried by each transfer")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	part, err := buildPartition(*q, *sqs8)
	var sched *schedule.Schedule
	if err == nil {
		sched, err = schedule.Build(part)
	}
	if err == nil {
		err = sched.Validate(part)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "Point-to-point schedule: P=%d processors, %d steps (all-to-all would use %d)\n",
		part.P, sched.NumSteps(), part.P-1)
	if !*sqs8 {
		fmt.Fprintf(stdout, "Theory (q³/2+3q²/2−1 for q=%d): %d steps\n", *q, schedule.TheoreticalSteps(*q))
	}
	fmt.Fprintln(stdout)
	for si, step := range sched.Steps {
		var parts []string
		for _, tr := range step {
			if *verbose {
				rows := make([]string, len(tr.Rows))
				for i, r := range tr.Rows {
					rows[i] = fmt.Sprint(r + 1)
				}
				parts = append(parts, fmt.Sprintf("%d->%d[%s]", tr.From+1, tr.To+1, strings.Join(rows, ",")))
			} else {
				parts = append(parts, fmt.Sprintf("%d->%d", tr.From+1, tr.To+1))
			}
		}
		fmt.Fprintf(stdout, "step %2d: %s\n", si+1, strings.Join(parts, "  "))
	}
	return 0
}

// planCmd enumerates the admissible machine configurations up to a
// processor budget, costs them for a problem dimension, and marks the
// cheapest. The predicted words/processor match the metered simulator runs
// exactly when the vector chunks divide evenly (cross-validated in
// internal/plan's tests).
//
//	plan -n 1000 -maxp 400
func planCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("plan", stderr)
	n := fs.Int("n", 1000, "problem dimension")
	maxP := fs.Int("maxp", 400, "processor budget")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	cfgs, err := plan.Enumerate(*n, *maxP)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if len(cfgs) == 0 {
		fmt.Fprintf(stderr, "plan: no admissible configuration with P <= %d\n", *maxP)
		return 1
	}
	best, err := plan.Best(*n, *maxP)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "machine configurations for n=%d, P <= %d\n\n", *n, *maxP)
	fmt.Fprintf(stdout, "%-12s %-5s %4s %5s %7s %8s %12s %12s %7s %14s\n",
		"family", "q/k", "m", "P", "b", "padded", "words/proc", "lower bound", "steps", "tensor wds/p")
	for _, c := range cfgs {
		marker := " "
		if c == best {
			marker = "*"
		}
		fmt.Fprintf(stdout, "%-12s %-5d %4d %5d %7d %8d %12.1f %12.1f %7d %14.0f %s\n",
			c.Family, c.Q, c.M, c.P, c.BlockEdge, c.PaddedN,
			c.Words, c.LowerBound, c.Steps, c.TensorWordsPerProc, marker)
	}
	fmt.Fprintf(stdout, "\n* recommended: %v machine with P=%d (predicted %.1f words/processor, bound %.1f)\n",
		best.Family, best.P, best.Words, best.LowerBound)
	return 0
}

// buildPartition returns the SQS(8) partition of Table 3 when sqs8 is set,
// else the spherical partition for prime power q.
func buildPartition(q int, sqs8 bool) (*partition.Tetrahedral, error) {
	if sqs8 {
		return partition.New(steiner.SQS8())
	}
	return partition.NewSpherical(q)
}

// intSet formats a 0-based index list as a 1-based set.
func intSet(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x + 1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// coordSet formats block coordinates as 1-based triples.
func coordSet(cs []partition.Coord) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprintf("(%d,%d,%d)", c.I+1, c.J+1, c.K+1)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
