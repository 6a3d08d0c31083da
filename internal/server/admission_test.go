package server

import (
	"strings"
	"testing"

	"hwprof/internal/core"
)

func TestSessionCost(t *testing.T) {
	ref := core.Config{IntervalLength: 10_000, TotalEntries: 2048}
	cases := []struct {
		name   string
		cfg    core.Config
		shards int
		want   float64
	}{
		{"reference", ref, 1, 1.0},
		{"four shards", ref, 4, 4.0},
		{"double everything", core.Config{IntervalLength: 20_000, TotalEntries: 4096}, 2, 8.0},
		{"tiny session floors", core.Config{IntervalLength: 100, TotalEntries: 64}, 1, minSessionCost},
	}
	for _, tc := range cases {
		if got := sessionCost(tc.cfg, tc.shards); got != tc.want {
			t.Errorf("%s: cost = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAdmissionAccounting(t *testing.T) {
	a := newAdmission(1.0, 0, newMetrics())
	for i := 0; i < 2; i++ {
		if ok, reason := a.tryAcquire("t1", 0.5); !ok {
			t.Fatalf("acquire %d refused: %s", i, reason)
		}
	}
	ok, reason := a.tryAcquire("t1", minSessionCost)
	if ok {
		t.Fatal("acquire admitted past an exhausted budget")
	}
	if !strings.Contains(reason, "admission refused") {
		t.Fatalf("refusal %q does not say admission refused", reason)
	}
	a.release("t1", 0.5)
	if ok, reason := a.tryAcquire("t1", 0.25); !ok {
		t.Fatalf("acquire after release refused: %s", reason)
	}
	if got := a.inUse(); got != 0.75 {
		t.Fatalf("inUse = %v, want 0.75", got)
	}
	// Release never drives usage negative, even if over-released.
	a.release("t1", 10)
	if got := a.inUse(); got != 0 {
		t.Fatalf("inUse after over-release = %v, want 0", got)
	}
}

func TestAdmissionTenantQuota(t *testing.T) {
	a := newAdmission(10, 1.0, newMetrics())
	// A tenant saturating its slice is refused with the tenant arithmetic
	// while the global budget still has room for everyone else.
	if ok, reason := a.tryAcquire("hog", 1.0); !ok {
		t.Fatalf("first acquire refused: %s", reason)
	}
	ok, reason := a.tryAcquire("hog", minSessionCost)
	if ok {
		t.Fatal("acquire admitted past an exhausted tenant quota")
	}
	if !strings.Contains(reason, "tenant hog") {
		t.Fatalf("refusal %q does not name the tenant", reason)
	}
	if ok, reason := a.tryAcquire("other", 1.0); !ok {
		t.Fatalf("second tenant refused by first tenant's quota: %s", reason)
	}
	// Releases return the slice.
	a.release("hog", 0.5)
	if ok, reason := a.tryAcquire("hog", 0.5); !ok {
		t.Fatalf("acquire after release refused: %s", reason)
	}
	if got := a.tenantUse("hog"); got != 1.0 {
		t.Fatalf("tenantUse = %v, want 1.0", got)
	}
}

func TestAdmissionReprice(t *testing.T) {
	a := newAdmission(2.0, 1.0, newMetrics())
	if ok, reason := a.tryAcquire("t", 0.5); !ok {
		t.Fatalf("acquire refused: %s", reason)
	}
	// A growth that fits commits atomically.
	if ok, reason := a.reprice("t", 0.5, 0.75); !ok {
		t.Fatalf("reprice refused: %s", reason)
	}
	if got := a.tenantUse("t"); got != 0.75 {
		t.Fatalf("tenantUse after reprice = %v, want 0.75", got)
	}
	// A growth past the tenant slice is refused and changes nothing.
	if ok, _ := a.reprice("t", 0.75, 1.5); ok {
		t.Fatal("reprice admitted past the tenant quota")
	}
	if got := a.tenantUse("t"); got != 0.75 {
		t.Fatalf("tenantUse after refused reprice = %v, want 0.75", got)
	}
	// fits mirrors the same judgment without committing.
	if a.fits("t", 0.75, 1.5) {
		t.Fatal("fits approved a growth reprice would refuse")
	}
	if !a.fits("t", 0.75, 0.25) {
		t.Fatal("fits refused a shrink")
	}
	// Shrinks always succeed.
	if ok, reason := a.reprice("t", 0.75, 0.25); !ok {
		t.Fatalf("shrink reprice refused: %s", reason)
	}
	if got := a.inUse(); got != 0.25 {
		t.Fatalf("inUse after shrink = %v, want 0.25", got)
	}
}
