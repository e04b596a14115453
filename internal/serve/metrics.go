package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/fault"
)

// metrics is the service's Prometheus-style instrumentation: request
// counters and latency histograms per endpoint, plus the cell-compute
// throughput counters the cells/sec rate derives from. Cache and
// admission numbers live on their own structs (cellCache, admission)
// and are rendered alongside these in the /metrics exposition.
//
// Everything is hand-rolled on purpose: the container bakes in no
// Prometheus client library, and the text exposition format is simple
// enough that deterministic, dependency-free rendering is less code
// than an adapter would be.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64      // endpoint \x00 code -> count
	latency  map[string]*histogram // endpoint -> seconds histogram

	cellsComputed    atomic.Int64
	cellComputeUS    atomic.Int64 // summed compute wall clock, microseconds
	cellsStreamed    atomic.Int64
	cellErrors       atomic.Int64
	diskWriteErrors  atomic.Int64 // write-behind persists that failed all retries
	diskWriteRetries atomic.Int64 // backoff retries of failed persists
	diskReadErrors   atomic.Int64 // disk-tier reads that failed at the IO layer
	diskBypassed     atomic.Int64 // disk operations skipped by an open breaker
	deadlineRejects  atomic.Int64 // requests answered 503 by the compute deadline

	revalidations  atomic.Int64 // /cell 304s answered from the content address
	attestQuotes   atomic.Int64
	attestAccepted atomic.Int64
	attestRejected atomic.Int64
	attestRevoked  atomic.Int64 // gauge: archs with a revoked baseline TCB
}

// latencyBuckets are the per-endpoint histogram bounds in seconds; +Inf
// is implicit.
var latencyBuckets = []float64{0.0005, 0.002, 0.01, 0.05, 0.25, 1, 5}

type histogram struct {
	counts []int64 // one per bucket, non-cumulative
	inf    int64
	sum    float64
	count  int64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]int64),
		latency:  make(map[string]*histogram),
	}
}

// observeRequest records one finished request: its endpoint, status
// code and wall-clock duration.
func (m *metrics) observeRequest(endpoint string, code int, d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint+"\x00"+strconv.Itoa(code)]++
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{counts: make([]int64, len(latencyBuckets))}
		m.latency[endpoint] = h
	}
	h.sum += secs
	h.count++
	for i, b := range latencyBuckets {
		if secs <= b {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// observeCompute records one computed (cold) cell and its cost.
func (m *metrics) observeCompute(d time.Duration, failed bool) {
	m.cellsComputed.Add(1)
	m.cellComputeUS.Add(d.Microseconds())
	if failed {
		m.cellErrors.Add(1)
	}
}

// render writes the full text exposition (version 0.0.4): the request
// and compute metrics above plus the cache, disk-tier and admission
// state passed in (disk may be nil). Output is deterministically
// ordered so scrapes diff cleanly.
func (m *metrics) render(w io.Writer, cache *cellCache, disk *diskcache.Store, adm *admission, brk *breaker, faults *fault.Plane) {
	writeHeader := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	writeHeader("intrust_requests_total", "counter", "HTTP requests served, by endpoint and status code.")
	m.mu.Lock()
	reqKeys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Strings(reqKeys)
	for _, k := range reqKeys {
		endpoint, code, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(w, "intrust_requests_total{endpoint=%q,code=%q} %d\n", endpoint, code, m.requests[k])
	}

	writeHeader("intrust_request_seconds", "histogram", "Request latency by endpoint.")
	epKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		epKeys = append(epKeys, k)
	}
	sort.Strings(epKeys)
	for _, ep := range epKeys {
		h := m.latency[ep]
		var cum int64
		for i, b := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "intrust_request_seconds_bucket{endpoint=%q,le=%q} %d\n", ep, formatBound(b), cum)
		}
		cum += h.inf
		fmt.Fprintf(w, "intrust_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "intrust_request_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(w, "intrust_request_seconds_count{endpoint=%q} %d\n", ep, h.count)
	}
	m.mu.Unlock()

	writeHeader("intrust_cells_computed_total", "counter", "Grid cells computed cold (cache misses that ran the engine).")
	fmt.Fprintf(w, "intrust_cells_computed_total %d\n", m.cellsComputed.Load())
	writeHeader("intrust_cell_compute_seconds_total", "counter", "Wall clock summed over cold cell computations; rate() against intrust_cells_computed_total gives cells/sec.")
	fmt.Fprintf(w, "intrust_cell_compute_seconds_total %g\n", float64(m.cellComputeUS.Load())/1e6)
	writeHeader("intrust_cells_streamed_total", "counter", "Cells written to /sweep NDJSON streams.")
	fmt.Fprintf(w, "intrust_cells_streamed_total %d\n", m.cellsStreamed.Load())
	writeHeader("intrust_cell_errors_total", "counter", "Cell computations that returned an engine error.")
	fmt.Fprintf(w, "intrust_cell_errors_total %d\n", m.cellErrors.Load())
	writeHeader("intrust_cell_revalidations_total", "counter", "Conditional /cell requests answered 304 from the content address alone.")
	fmt.Fprintf(w, "intrust_cell_revalidations_total %d\n", m.revalidations.Load())

	writeHeader("intrust_attest_quotes_total", "counter", "Attestation quotes minted cold (cache misses that signed).")
	fmt.Fprintf(w, "intrust_attest_quotes_total %d\n", m.attestQuotes.Load())
	writeHeader("intrust_attest_verifies_total", "counter", "Quote verifications decided cold, by result.")
	fmt.Fprintf(w, "intrust_attest_verifies_total{result=\"accepted\"} %d\n", m.attestAccepted.Load())
	fmt.Fprintf(w, "intrust_attest_verifies_total{result=\"rejected\"} %d\n", m.attestRejected.Load())
	writeHeader("intrust_attest_revoked_archs", "gauge", "Architectures whose baseline TCB is revoked by the sweep-driven policy.")
	fmt.Fprintf(w, "intrust_attest_revoked_archs %d\n", m.attestRevoked.Load())

	writeHeader("intrust_cache_hits_total", "counter", "Result-cache hits.")
	fmt.Fprintf(w, "intrust_cache_hits_total %d\n", cache.hits.Load())
	writeHeader("intrust_cache_misses_total", "counter", "Result-cache misses.")
	fmt.Fprintf(w, "intrust_cache_misses_total %d\n", cache.misses.Load())
	writeHeader("intrust_cache_evictions_total", "counter", "Result-cache LRU evictions.")
	fmt.Fprintf(w, "intrust_cache_evictions_total %d\n", cache.evictions.Load())
	writeHeader("intrust_cache_entries", "gauge", "Result-cache resident entries.")
	entries, bytes := cache.size()
	fmt.Fprintf(w, "intrust_cache_entries %d\n", entries)
	writeHeader("intrust_cache_bytes", "gauge", "Result-cache resident key+body bytes (bounded alongside the entry count).")
	fmt.Fprintf(w, "intrust_cache_bytes %d\n", bytes)

	if disk != nil {
		c := disk.Counters()
		writeHeader("intrust_disk_hits_total", "counter", "Persistent-tier reads that served an authenticated body.")
		fmt.Fprintf(w, "intrust_disk_hits_total %d\n", c.Hits)
		writeHeader("intrust_disk_misses_total", "counter", "Persistent-tier reads with no entry on disk.")
		fmt.Fprintf(w, "intrust_disk_misses_total %d\n", c.Misses)
		writeHeader("intrust_disk_rejects_total", "counter", "Persistent-tier entries refused (failed authentication, truncated, torn or aliased) and quarantined.")
		fmt.Fprintf(w, "intrust_disk_rejects_total %d\n", c.Rejects)
		writeHeader("intrust_disk_writes_total", "counter", "Cell bodies durably persisted to the disk tier.")
		fmt.Fprintf(w, "intrust_disk_writes_total %d\n", c.Writes)
		writeHeader("intrust_disk_write_errors_total", "counter", "Write-behind persists that failed all retries (the response was served anyway).")
		fmt.Fprintf(w, "intrust_disk_write_errors_total %d\n", m.diskWriteErrors.Load())
		writeHeader("intrust_disk_write_retries_total", "counter", "Backoff retries of failed write-behind persists.")
		fmt.Fprintf(w, "intrust_disk_write_retries_total %d\n", m.diskWriteRetries.Load())
		writeHeader("intrust_disk_read_errors_total", "counter", "Persistent-tier reads that failed at the IO layer (served as misses).")
		fmt.Fprintf(w, "intrust_disk_read_errors_total %d\n", m.diskReadErrors.Load())
		writeHeader("intrust_disk_io_errors_total", "counter", "Storage-layer read and write failures seen by the disk store itself.")
		fmt.Fprintf(w, "intrust_disk_io_errors_total %d\n", c.IOErrors)
		writeHeader("intrust_disk_bypassed_total", "counter", "Disk-tier operations skipped because the circuit breaker was open.")
		fmt.Fprintf(w, "intrust_disk_bypassed_total %d\n", m.diskBypassed.Load())
		writeHeader("intrust_disk_breaker_state", "gauge", "Disk-tier circuit breaker state: 0 closed, 1 open, 2 half-open.")
		fmt.Fprintf(w, "intrust_disk_breaker_state %d\n", brk.snapshot())
		writeHeader("intrust_disk_breaker_opens_total", "counter", "Times the disk-tier circuit breaker tripped open.")
		fmt.Fprintf(w, "intrust_disk_breaker_opens_total %d\n", brk.opens.Load())
	}

	writeHeader("intrust_deadline_rejects_total", "counter", "Requests answered 503 because the compute deadline fired.")
	fmt.Fprintf(w, "intrust_deadline_rejects_total %d\n", m.deadlineRejects.Load())

	if faults != nil {
		writeHeader("intrust_fault_injections_total", "counter", "Fault-plane injections that fired, by fault point.")
		counters := faults.Counters()
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "intrust_fault_injections_total{point=%q} %d\n", name, counters[name].Fires)
		}
	}

	writeHeader("intrust_inflight_requests", "gauge", "Requests currently holding a compute slot.")
	fmt.Fprintf(w, "intrust_inflight_requests %d\n", adm.inFlight.Load())
	writeHeader("intrust_queue_waiting", "gauge", "Requests waiting in the admission queue.")
	fmt.Fprintf(w, "intrust_queue_waiting %d\n", adm.waiting.Load())
	writeHeader("intrust_rejected_total", "counter", "Requests rejected with 429 because the admission queue was full.")
	fmt.Fprintf(w, "intrust_rejected_total %d\n", adm.rejected.Load())
}

// formatBound renders a bucket bound the way Prometheus clients do
// (shortest float form).
func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
