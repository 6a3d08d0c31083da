package counter

import "testing"

func TestNewBankValidation(t *testing.T) {
	if _, err := NewSet(1, 0, 24); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewSet(1, -1, 24); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewSet(1, 8, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewSet(1, 8, 65); err == nil {
		t.Error("width 65 accepted")
	}
	s, err := NewSet(1, 8, 64)
	if err != nil {
		t.Fatalf("width 64 rejected: %v", err)
	}
	if s.max != ^uint64(0) {
		t.Errorf("width-64 saturation value = %d", s.max)
	}
}

func TestIncAndGet(t *testing.T) {
	s, _ := NewSet(1, 4, 24)
	for i := 0; i < 5; i++ {
		s.IncAt(2)
	}
	if got := s.Get(0, 2); got != 5 {
		t.Fatalf("Get(0, 2) = %d, want 5", got)
	}
	if got := s.Get(0, 0); got != 0 {
		t.Fatalf("Get(0, 0) = %d, want 0", got)
	}
}

func TestSaturation(t *testing.T) {
	s, _ := NewSet(1, 1, 3) // saturates at 7
	for i := 0; i < 20; i++ {
		s.IncAt(0)
	}
	if got := s.GetAt(0); got != 7 {
		t.Fatalf("3-bit counter = %d after 20 increments, want 7", got)
	}
}

func TestResetAndFlush(t *testing.T) {
	s, _ := NewSet(1, 3, 24)
	s.IncAt(0)
	s.IncAt(1)
	s.IncAt(2)
	s.ResetAt(1)
	if s.GetAt(0) != 1 || s.GetAt(1) != 0 || s.GetAt(2) != 1 {
		t.Fatal("ResetAt touched the wrong counters")
	}
	s.Flush()
	for j := 0; j < 3; j++ {
		if s.GetAt(j) != 0 {
			t.Fatalf("counter %d nonzero after Flush", j)
		}
	}
}
