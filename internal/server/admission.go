package server

import (
	"fmt"
	"sync"

	"hwprof/internal/core"
	"hwprof/internal/telemetry"
)

// Admission cost model. A session's cost estimates the engine work and
// storage it will demand of the daemon: interval length (events profiled
// per boundary), shard count (worker goroutines plus per-shard storage),
// and table entries (counter storage touched per event) multiply, then
// normalize against the reference session so 1.0 means "one default
// profctl session" — 10k-event intervals, one shard, 2048 entries. The
// budget is denominated in those units.
const (
	// refIntervalLength and refEntries define the 1.0-cost reference
	// session.
	refIntervalLength = 10_000
	refEntries        = 2048

	// minSessionCost floors the estimate so a flood of tiny sessions still
	// consumes budget instead of being admitted without bound.
	minSessionCost = 1.0 / 16

	// DefaultCostBudget admits roughly 256 reference sessions.
	DefaultCostBudget = 256.0
)

// sessionCost estimates cfg's engine cost in budget units.
func sessionCost(cfg core.Config, shards int) float64 {
	c := float64(cfg.IntervalLength) / refIntervalLength *
		float64(shards) *
		float64(cfg.TotalEntries) / refEntries
	if c < minSessionCost {
		c = minSessionCost
	}
	return c
}

// admission tracks the daemon's engine-cost budget, globally and per
// tenant. Sessions acquire their estimated cost at Hello and release it
// when their engine is finally discarded — including after a tombstone's
// grace period, since a parked engine still holds its storage. With a
// per-tenant budget configured, a tenant's live sessions additionally
// share that slice: one tenant saturating its quota cannot starve the
// rest of the global budget. Elastic resizes re-price through reprice,
// against both ledgers, before the new engine is committed.
type admission struct {
	budget       float64
	tenantBudget float64  // 0 = per-tenant quotas disabled
	metrics      *Metrics // cost-in-use gauges, set on every charge

	mu      sync.Mutex
	used    float64
	tenants map[string]float64 // cost in use per tenant key
}

func newAdmission(budget, tenantBudget float64, m *Metrics) *admission {
	return &admission{budget: budget, tenantBudget: tenantBudget, metrics: m, tenants: make(map[string]float64)}
}

// admitLocked admits a session of cost for tenant against the session
// limit and the cost budget, charging the budget on success. On refusal it
// returns the counter naming the reason — the caller decides whether the
// refusal counts — and the client-facing reason. Callers hold s.mu.
func (s *Server) admitLocked(tenant string, cost float64) (refused *telemetry.Counter, reason string) {
	if len(s.sessions)+len(s.tombs) >= s.cfg.MaxSessions {
		return s.metrics.AdmissionRefusedLimit, fmt.Sprintf("admission refused: session limit %d reached", s.cfg.MaxSessions)
	}
	if ok, reason := s.admission.tryAcquire(tenant, cost); !ok {
		return s.metrics.AdmissionRefusedCost, reason
	}
	return nil, ""
}

// tryAcquire admits cost against the remaining global budget and, when
// per-tenant quotas are on, against tenant's remaining slice. On refusal
// it returns a client-facing reason carrying the arithmetic.
func (a *admission) tryAcquire(tenant string, cost float64) (ok bool, reason string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used+cost > a.budget {
		return false, fmt.Sprintf(
			"admission refused: session cost %.3f exceeds available budget (%.3f of %.3f in use)",
			cost, a.used, a.budget)
	}
	if a.tenantBudget > 0 {
		if used := a.tenants[tenant]; used+cost > a.tenantBudget {
			return false, fmt.Sprintf(
				"admission refused: session cost %.3f exceeds tenant %s's available quota (%.3f of %.3f in use)",
				cost, tenant, used, a.tenantBudget)
		}
	}
	a.charge(tenant, cost)
	return true, ""
}

// reprice atomically swaps a session's admitted cost from old to new —
// the elastic resize path. Shrinks always succeed; a growth that does not
// fit either ledger is refused with the arithmetic and nothing changes.
func (a *admission) reprice(tenant string, old, new float64) (ok bool, reason string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delta := new - old
	if delta > 0 {
		if a.used+delta > a.budget {
			return false, fmt.Sprintf(
				"resize refused: re-priced cost %.3f (was %.3f) exceeds available budget (%.3f of %.3f in use)",
				new, old, a.used, a.budget)
		}
		if a.tenantBudget > 0 {
			if used := a.tenants[tenant]; used+delta > a.tenantBudget {
				return false, fmt.Sprintf(
					"resize refused: re-priced cost %.3f (was %.3f) exceeds tenant %s's quota (%.3f of %.3f in use)",
					new, old, tenant, used, a.tenantBudget)
			}
		}
	}
	a.charge(tenant, delta)
	return true, ""
}

// fits reports whether repricing old to new would succeed, without
// committing anything — the controller's CanAfford predicate, used to
// steer proposals away from certain refusals. The authoritative check is
// still the reprice at commit time.
func (a *admission) fits(tenant string, old, new float64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	delta := new - old
	if delta <= 0 {
		return true
	}
	if a.used+delta > a.budget {
		return false
	}
	if a.tenantBudget > 0 && a.tenants[tenant]+delta > a.tenantBudget {
		return false
	}
	return true
}

// charge adjusts both ledgers by delta (may be negative) and sets their
// gauges, so a gauge never lags its ledger. Callers hold mu.
func (a *admission) charge(tenant string, delta float64) {
	a.used += delta
	if a.used < 0 {
		a.used = 0
	}
	t := a.tenants[tenant] + delta
	if t <= 0 {
		t = 0
		delete(a.tenants, tenant)
	} else {
		a.tenants[tenant] = t
	}
	a.metrics.AdmissionCostUsed.Set(milli(a.used))
	a.metrics.TenantCostUsed.With(tenant).Set(milli(t))
}

// release returns cost to the budget (and the tenant's slice).
func (a *admission) release(tenant string, cost float64) {
	a.mu.Lock()
	a.charge(tenant, -cost)
	a.mu.Unlock()
}

// inUse reports the cost currently admitted.
func (a *admission) inUse() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// tenantUse reports the cost currently admitted for one tenant.
func (a *admission) tenantUse(tenant string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tenants[tenant]
}

// milli converts a cost to the integer milli-units the gauge exports.
func milli(cost float64) int64 { return int64(cost * 1000) }
