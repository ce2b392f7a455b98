package service

import (
	"sync/atomic"
	"time"
)

// latencyBucketsMillis are the upper bounds (inclusive, milliseconds)
// of the run-latency histogram; the final implicit bucket is +Inf.
var latencyBucketsMillis = []int64{1, 5, 25, 100, 500, 2500, 10000}

// metrics is the service's expvar-style instrument panel: monotonic
// counters, a running-jobs gauge, and a fixed-bucket latency
// histogram, all lock-free.
type metrics struct {
	submitted uint64 // jobs accepted into the queue
	rejected  uint64 // submissions bounced with 429 (queue full)
	done      uint64
	failed    uint64
	cancelled uint64
	running   int64 // gauge

	// deltastream counters: committed matrix PATCHes, accepted
	// warm-start recluster children, and requests refused with 409
	// lineage_busy (the race guard firing).
	patched          uint64
	reclustered      uint64
	lineageConflicts uint64

	latencyCounts [8]uint64 // len(latencyBucketsMillis) + 1 (+Inf)
	latencySumNs  int64
}

func (m *metrics) jobSubmitted() { atomic.AddUint64(&m.submitted, 1) }
func (m *metrics) jobRejected()  { atomic.AddUint64(&m.rejected, 1) }
func (m *metrics) jobStarted()   { atomic.AddInt64(&m.running, 1) }

func (m *metrics) matrixPatched()     { atomic.AddUint64(&m.patched, 1) }
func (m *metrics) reclusterAccepted() { atomic.AddUint64(&m.reclustered, 1) }
func (m *metrics) lineageConflict()   { atomic.AddUint64(&m.lineageConflicts, 1) }

// jobCancelledQueued counts a job cancelled straight out of the queue
// — it never ran, so the running gauge and latency histogram are
// untouched.
func (m *metrics) jobCancelledQueued() { atomic.AddUint64(&m.cancelled, 1) }

// jobFinished records the terminal state and the run latency
// (started→finished wall clock).
func (m *metrics) jobFinished(state JobState, latency time.Duration) {
	atomic.AddInt64(&m.running, -1)
	switch state {
	case StateDone:
		atomic.AddUint64(&m.done, 1)
	case StateFailed:
		atomic.AddUint64(&m.failed, 1)
	case StateCancelled:
		atomic.AddUint64(&m.cancelled, 1)
	}
	ms := latency.Milliseconds()
	i := 0
	for i < len(latencyBucketsMillis) && ms > latencyBucketsMillis[i] {
		i++
	}
	atomic.AddUint64(&m.latencyCounts[i], 1)
	atomic.AddInt64(&m.latencySumNs, int64(latency))
}

// MetricsView is the JSON body of GET /metrics.
type MetricsView struct {
	Jobs    JobMetrics   `json:"jobs"`
	Queue   QueueMetrics `json:"queue"`
	Latency LatencyView  `json:"run_latency"`
}

// JobMetrics mixes cumulative counters (submitted, rejected, done,
// failed, cancelled) with point-in-time gauges over the stored jobs
// (queued, running, stored) and their matrices (dense matrices,
// parked matrix bytes).
type JobMetrics struct {
	Submitted         uint64 `json:"submitted"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	Done              uint64 `json:"done"`
	Failed            uint64 `json:"failed"`
	Cancelled         uint64 `json:"cancelled"`
	Queued            int    `json:"queued"`
	Running           int64  `json:"running"`
	Stored            int    `json:"stored"`

	MatrixPatches    uint64 `json:"matrix_patches"`
	Reclustered      uint64 `json:"reclustered"`
	LineageConflicts uint64 `json:"lineage_conflicts"`

	// DenseMatrices counts the dense matrices the store holds: one per
	// queued or running job that has its matrix (a recluster child
	// builds its own when it starts), so at most one per lineage, and
	// none for an idle lineage.
	DenseMatrices int `json:"dense_matrices"`

	// ParkedMatrixBytes sums the DCMX base sections the FLOC lineages
	// keep, busy or idle; an idle lineage's matrix is this section
	// plus its mutation log.
	ParkedMatrixBytes int `json:"parked_matrix_bytes"`
}

// QueueMetrics reports backpressure state.
type QueueMetrics struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// LatencyView is the run-latency histogram: Counts[i] jobs finished
// within BucketsMillis[i] ms (the last count is the +Inf overflow).
type LatencyView struct {
	BucketsMillis []int64  `json:"buckets_ms"`
	Counts        []uint64 `json:"counts"`
	Count         uint64   `json:"count"`
	SumMillis     float64  `json:"sum_ms"`
}

// snapshot assembles the metrics view; gauges are read from the store
// and queue at call time.
func (m *metrics) snapshot(byState map[JobState]int, stored, depth, capacity int) MetricsView {
	v := MetricsView{
		Jobs: JobMetrics{
			Submitted:         atomic.LoadUint64(&m.submitted),
			RejectedQueueFull: atomic.LoadUint64(&m.rejected),
			Done:              atomic.LoadUint64(&m.done),
			Failed:            atomic.LoadUint64(&m.failed),
			Cancelled:         atomic.LoadUint64(&m.cancelled),
			Queued:            byState[StateQueued],
			Running:           atomic.LoadInt64(&m.running),
			Stored:            stored,
			MatrixPatches:     atomic.LoadUint64(&m.patched),
			Reclustered:       atomic.LoadUint64(&m.reclustered),
			LineageConflicts:  atomic.LoadUint64(&m.lineageConflicts),
		},
		Queue: QueueMetrics{Depth: depth, Capacity: capacity},
	}
	counts := make([]uint64, len(m.latencyCounts))
	var total uint64
	for i := range m.latencyCounts {
		counts[i] = atomic.LoadUint64(&m.latencyCounts[i])
		total += counts[i]
	}
	v.Latency = LatencyView{
		BucketsMillis: append([]int64(nil), latencyBucketsMillis...),
		Counts:        counts,
		Count:         total,
		SumMillis:     float64(atomic.LoadInt64(&m.latencySumNs)) / 1e6,
	}
	return v
}
