package distrib

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestLeaseAcquireHeldExpireReacquire(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.json")
	a, err := AcquireLease(path, "a", "addr-a:1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch() != 1 {
		t.Fatalf("first epoch %d, want 1", a.Epoch())
	}
	st, exists, err := ReadLease(path)
	if err != nil || !exists || st.Holder != "a" || st.Addr != "addr-a:1" {
		t.Fatalf("lease state %+v exists=%v err=%v", st, exists, err)
	}
	// A competing holder is refused while the lease is live.
	if _, err := AcquireLease(path, "b", "addr-b:1", time.Hour); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("err %v, want ErrLeaseHeld", err)
	}
	// Renewal pushes the expiry out.
	if err := a.Renew(); err != nil {
		t.Fatal(err)
	}
	renewed, _, err := ReadLease(path)
	if err != nil || renewed.ExpiresUnixMilli < st.ExpiresUnixMilli {
		t.Fatalf("renewed lease %+v (err %v), want expiry at or after %d", renewed, err, st.ExpiresUnixMilli)
	}
	// Once expired, the standby takes over with the next epoch. The
	// holder's clock runs out by writing its expiry into the past.
	renewed.ExpiresUnixMilli = time.Now().Add(-time.Second).UnixMilli()
	if err := writeLeaseFile(path, renewed); err != nil {
		t.Fatal(err)
	}
	b, err := AcquireLease(path, "b", "addr-b:1", time.Hour)
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if b.Epoch() != 2 {
		t.Fatalf("epoch after takeover %d, want 2", b.Epoch())
	}
	// The deposed holder's renewal must fail loudly.
	if err := a.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("deposed renew err %v, want ErrLeaseLost", err)
	}
}

func TestLeaseReleaseFreesImmediately(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.json")
	a, err := AcquireLease(path, "a", "addr-a:1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	b, err := AcquireLease(path, "b", "addr-b:1", time.Hour)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if b.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2 (release preserves the epoch counter)", b.Epoch())
	}
}

// Concurrent acquisitions of a free lease elect exactly one leader.
func TestLeaseConcurrentAcquireElectsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.json")
	const contenders = 8
	var wg sync.WaitGroup
	won := make(chan int64, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := AcquireLease(path, string(rune('a'+i)), "addr", time.Hour)
			if err == nil {
				won <- l.Epoch()
			} else if !errors.Is(err, ErrLeaseHeld) {
				t.Errorf("contender %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(won)
	var epochs []int64
	for e := range won {
		epochs = append(epochs, e)
	}
	if len(epochs) != 1 || epochs[0] != 1 {
		t.Fatalf("winners %v, want exactly one at epoch 1", epochs)
	}
}

func TestLeaseExpiredState(t *testing.T) {
	s := LeaseState{ExpiresUnixMilli: time.Now().Add(time.Minute).UnixMilli()}
	if s.Expired(time.Now()) {
		t.Fatal("future lease reported expired")
	}
	if !s.Expired(time.Now().Add(2 * time.Minute)) {
		t.Fatal("past lease reported live")
	}
}
