// Parallel eigensolver: Algorithm 1 (higher-order power method) with every
// STTSV evaluation executed by Algorithm 5 on the simulated distributed-
// memory machine — the end-to-end pipeline the paper's introduction
// motivates. The per-iteration communication stays at the lower bound's
// leading term, so total eigensolver communication is
// iterations × 2n/P^{1/3} words instead of iterations × Θ(n).
package main

import (
	"fmt"
	"log"
	"math"

	sttsv "repro"
)

func main() {
	const q = 3
	part, err := sttsv.NewPartition(q)
	if err != nil {
		log.Fatal(err)
	}
	b := q * (q + 1)
	n := part.M * b // 120
	fmt.Printf("machine: P=%d simulated processors (q=%d), n=%d\n\n", part.P, q, n)

	// A planted dominant component plus noise: the power method should
	// recover it.
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(3*i + 1))
	}
	normalize(v)
	planted := sttsv.RankOneTensor(4, v)
	noise := sttsv.RandomTensor(n, 9)
	a := sttsv.NewTensor(n)
	for i := range a.Data {
		a.Data[i] = planted.Data[i] + 0.01*noise.Data[i]
	}

	// One resident session serves every iteration: the machine launch,
	// schedule and packed blocks are paid once, not per application.
	s, err := sttsv.OpenSession(a, sttsv.ParallelOptions{Part: part, B: b, Wiring: sttsv.WiringP2P})
	if err != nil {
		log.Fatal(err)
	}

	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	var lambda, prev float64
	prev = math.Inf(1)
	var totalWords int64
	iters := 0
	for it := 1; it <= 200; it++ {
		res, err := s.Apply(x)
		if err != nil {
			log.Fatal(err)
		}
		totalWords += res.Report.MaxSentWords()
		lambda = dot(x, res.Y)
		iters = it
		if math.Abs(lambda-prev) <= 1e-12*(1+math.Abs(lambda)) {
			break
		}
		prev = lambda
		copy(x, res.Y)
		normalize(x)
	}
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}

	align := math.Abs(dot(x, v))
	fmt.Printf("power method: lambda = %.8f after %d simulated-parallel iterations\n", lambda, iters)
	fmt.Printf("alignment with planted component: %.6f\n", align)
	fmt.Printf("communication: %d words/processor total (%d per iteration; lower bound %.1f per iteration)\n",
		totalWords, totalWords/int64(iters), sttsv.LowerBoundWords(n, part.P))
	fmt.Printf("a Θ(n)-per-iteration 1D layout would have moved ≈ %d words/processor total\n",
		int64(2*float64(n)*(1-1/float64(part.P)))*int64(iters))
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func normalize(x []float64) {
	n := math.Sqrt(dot(x, x))
	for i := range x {
		x[i] /= n
	}
}
