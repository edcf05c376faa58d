package serve

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// metrics aggregates the pool's admission and batching counters. One
// mutex suffices: every update happens once per request (admission /
// rejection) or once per batch (flush), never inside the per-step
// exchange path, so contention is bounded by the request rate, not the
// schedule length.
type metrics struct {
	mu sync.Mutex

	requests    int64
	rejected    int64
	batches     int64
	batchErrors int64

	sizeFlushes  int64
	waitFlushes  int64
	drainFlushes int64

	occupancySum int64
	maxOccupancy int

	queueWaitNs    int64
	queueWaitMaxNs int64
	serviceNs      int64
	serviceMaxNs   int64

	tenants map[string]*tenantAgg
}

type tenantAgg struct {
	requests       int64
	rejected       int64
	sentWords      int64
	sentMsgs       float64
	queueWaitNs    int64
	queueWaitMaxNs int64
}

// Tenant names come from clients, so the ledger is bounded: Pool.Apply
// refuses a name longer than maxTenantName bytes, and past maxTenants
// named rows every new name is counted under the otherTenants row.
const (
	maxTenantName = 256
	maxTenants    = 1024
	otherTenants  = "(other)"
)

func newMetrics() *metrics {
	return &metrics{tenants: make(map[string]*tenantAgg)}
}

func (m *metrics) tenant(name string) *tenantAgg {
	t := m.tenants[name]
	if t == nil {
		if len(m.tenants) >= maxTenants {
			name = otherTenants
			if t = m.tenants[name]; t != nil {
				return t
			}
		}
		t = &tenantAgg{}
		m.tenants[name] = t
	}
	return t
}

func (m *metrics) reject(tenant string) {
	m.mu.Lock()
	m.rejected++
	m.tenant(tenant).rejected++
	m.mu.Unlock()
}

// flush records one completed batch: the trigger that fired it, its
// occupancy, each member's queue wait, and — on success — each tenant's
// amortized share of the batch's traffic.
func (m *metrics) flush(batch []*request, trig Trigger, service time.Duration, shares []parallel.PhaseShare, start time.Time, failed bool) {
	var shareWords int64
	var shareMsgs float64
	for _, sh := range shares {
		shareWords += sh.SentWords
		shareMsgs += sh.SentMsgs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	if failed {
		m.batchErrors++
	}
	switch trig {
	case TriggerSize:
		m.sizeFlushes++
	case TriggerWait:
		m.waitFlushes++
	case TriggerDrain:
		m.drainFlushes++
	}
	m.occupancySum += int64(len(batch))
	if len(batch) > m.maxOccupancy {
		m.maxOccupancy = len(batch)
	}
	m.serviceNs += service.Nanoseconds()
	if ns := service.Nanoseconds(); ns > m.serviceMaxNs {
		m.serviceMaxNs = ns
	}
	for _, r := range batch {
		m.requests++
		wait := start.Sub(r.enq).Nanoseconds()
		if wait < 0 {
			wait = 0
		}
		m.queueWaitNs += wait
		if wait > m.queueWaitMaxNs {
			m.queueWaitMaxNs = wait
		}
		t := m.tenant(r.tenant)
		t.requests++
		t.queueWaitNs += wait
		if wait > t.queueWaitMaxNs {
			t.queueWaitMaxNs = wait
		}
		if !failed {
			t.sentWords += shareWords
			t.sentMsgs += shareMsgs
		}
	}
}

// avgServiceNs is the measured mean per-batch service time, feeding the
// BusyError retry hint. Zero before the first completed batch.
func (m *metrics) avgServiceNs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.batches == 0 {
		return 0
	}
	return m.serviceNs / m.batches
}

const nsPerUs = 1e3

// snapshot flattens the counters into the obs serving-metrics shape,
// tenants sorted by name for stable output.
func (m *metrics) snapshot(sessions, maxCols int, maxWait time.Duration) obs.ServingSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := obs.ServingSnapshot{
		Sessions:  sessions,
		MaxCols:   maxCols,
		MaxWaitUs: float64(maxWait.Nanoseconds()) / nsPerUs,
		Requests:  m.requests, Rejected: m.rejected,
		Batches: m.batches, BatchErrors: m.batchErrors,
		SizeFlushes: m.sizeFlushes, WaitFlushes: m.waitFlushes, DrainFlushes: m.drainFlushes,
		MaxOccupancy:   m.maxOccupancy,
		QueueWaitMaxUs: float64(m.queueWaitMaxNs) / nsPerUs,
		ServiceMaxUs:   float64(m.serviceMaxNs) / nsPerUs,
	}
	if m.batches > 0 {
		s.AvgOccupancy = float64(m.occupancySum) / float64(m.batches)
		s.ServiceAvgUs = float64(m.serviceNs) / float64(m.batches) / nsPerUs
	}
	if m.requests > 0 {
		s.QueueWaitAvgUs = float64(m.queueWaitNs) / float64(m.requests) / nsPerUs
	}
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := m.tenants[name]
		tn := obs.ServingTenant{
			Tenant: name, Requests: t.requests, Rejected: t.rejected,
			SentWords: t.sentWords, SentMsgs: t.sentMsgs,
			QueueWaitMaxUs: float64(t.queueWaitMaxNs) / nsPerUs,
		}
		if t.requests > 0 {
			tn.QueueWaitAvgUs = float64(t.queueWaitNs) / float64(t.requests) / nsPerUs
		}
		s.Tenants = append(s.Tenants, tn)
	}
	return s
}
