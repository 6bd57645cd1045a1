package experiments

import (
	"fmt"

	"envy/internal/core"
	"envy/internal/sim"
	"envy/internal/tpca"
)

// The parhost experiment measures the batched parallel host service
// (core lanes + host batch admission): ParallelHost drives the
// saturated TPC-A workload through the parallel driver, so
// disjoint-footprint requests overlap on the simulated timeline,
// sustained TPS rises above the serial depth-4 figure, and clean-copy
// traffic overlaps flush programming on distinct banks
// (FlushCleanOverlap > 0).

// parallelMod configures a scale's system device for parallel service:
// batched service on and one flush engine per bank.
func parallelMod(sc Scale) func(*core.Config) {
	return func(c *core.Config) {
		c.ParallelFlush = sc.SystemGeometry.Banks
		c.ParallelService = true
	}
}

// runRateParallel is runRateDepth with the parallel batch driver.
func runRateParallel(sc Scale, rate float64, depth int) (tpca.Results, error) {
	return runRateWith(sc, rate, parallelMod(sc), func(b *tpca.Bank) *tpca.Driver {
		return tpca.NewDriverParallel(b, depth)
	})
}

// ParallelHostPoint is one queue depth of the parallel-service sweep.
type ParallelHostPoint struct {
	Depth             int
	TPS               float64
	Batches           int64
	Batched           int64
	MaxBatch          int
	FlushCleanOverlap sim.Duration
	WriteMean         sim.Duration
}

// ParallelHostDepths is the queue-depth sweep of the parallel service.
// Depth 16 carries the headline: the grouped driver keeps five
// transactions in flight, and their overlapped record reads push the
// saturated TPS past the serial engine's depth-4 figure.
var ParallelHostDepths = []int{4, 8, 16}

// ParallelHostOne measures the parallel host service at one depth,
// offered the same 2× saturation rate as the host-depth sweep so the
// TPS figures are directly comparable to the serial engine's.
func ParallelHostOne(sc Scale, depth int) (ParallelHostPoint, error) {
	rate := sc.Rates[len(sc.Rates)-1] * 2
	res, err := runRateParallel(sc, rate, depth)
	if err != nil {
		return ParallelHostPoint{}, err
	}
	return ParallelHostPoint{
		Depth:             depth,
		TPS:               res.TPS,
		Batches:           res.HostBatches,
		Batched:           res.HostBatched,
		MaxBatch:          res.HostMaxBatch,
		FlushCleanOverlap: res.FlushCleanOverlap,
		WriteMean:         res.WriteMean,
	}, nil
}

// ParallelHost sweeps the parallel service across queue depths.
func ParallelHost(sc Scale) ([]ParallelHostPoint, error) {
	var pts []ParallelHostPoint
	for _, depth := range ParallelHostDepths {
		pt, err := ParallelHostOne(sc, depth)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// ParallelHostTable formats the parallel-service sweep.
func ParallelHostTable(pts []ParallelHostPoint) Table {
	t := Table{
		Title:  "parallel host service: batched device core",
		Note:   "batched requests overlap on the simulated timeline; overlap = flush programs running concurrently with cleaning copies",
		Header: []string{"depth", "sustained TPS", "batches", "batched reqs", "max batch", "clean/flush overlap", "write mean"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Depth), f0(p.TPS),
			fmt.Sprintf("%d", p.Batches), fmt.Sprintf("%d", p.Batched),
			fmt.Sprintf("%d", p.MaxBatch), ns(p.FlushCleanOverlap), ns(p.WriteMean),
		})
	}
	return t
}

// ParallelHostMetrics keys the parallel-service sweep by depth.
func ParallelHostMetrics(pts []ParallelHostPoint) map[string]float64 {
	m := make(map[string]float64)
	for _, p := range pts {
		prefix := fmt.Sprintf("depth%d_", p.Depth)
		m[prefix+"tps"] = p.TPS
		m[prefix+"batches"] = float64(p.Batches)
		m[prefix+"batched"] = float64(p.Batched)
		m[prefix+"max_batch"] = float64(p.MaxBatch)
		m[prefix+"overlap_ns"] = float64(p.FlushCleanOverlap)
		m[prefix+"write_ns"] = float64(p.WriteMean)
	}
	return m
}

// RunRateWith exposes the aged-and-warmed single-rate runner for
// driver-level studies (root-level tests and ad-hoc comparisons).
func RunRateWith(sc Scale, rate float64, mod func(*core.Config), newDriver func(*tpca.Bank) *tpca.Driver) (tpca.Results, error) {
	return runRateWith(sc, rate, mod, newDriver)
}
