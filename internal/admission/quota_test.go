package admission

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestQuotaUnlimited(t *testing.T) {
	q := newQuota(0, 0)
	for i := 0; i < 100; i++ {
		if !q.tryAcquire() {
			t.Fatalf("unlimited quota rejected acquire %d", i)
		}
	}
	used, _, _ := q.state()
	if used != 100 {
		t.Fatalf("used = %d, want 100 (counts even when unlimited)", used)
	}
}

func TestQuotaBoundsAndWaitingRoom(t *testing.T) {
	q := newQuota(2, 1)
	if !q.tryAcquire() || !q.tryAcquire() {
		t.Fatal("first two acquires should succeed")
	}
	if q.tryAcquire() {
		t.Fatal("third tryAcquire should fail at cap 2")
	}
	// One waiter fits in the room; a second is rejected immediately.
	start := time.Now()
	if q.acquire(context.Background(), time.Millisecond, nil) {
		t.Fatal("waiter should time out while both slots are held")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("bounded wait overshot wildly")
	}
}

func TestQuotaFIFOHandoff(t *testing.T) {
	q := newQuota(1, 10)
	if !q.tryAcquire() {
		t.Fatal("initial acquire failed")
	}
	order := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		i := i
		go func() {
			defer wg.Done()
			if q.acquire(context.Background(), time.Second, nil) {
				order <- i
				q.release()
			}
		}()
		time.Sleep(10 * time.Millisecond) // establish arrival order
	}
	q.release()
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("handoff order got %d, want %d (FIFO)", got, want)
		}
		want++
	}
	if want != 3 {
		t.Fatalf("only %d waiters served, want 3", want)
	}
}

func TestQuotaWaitingRoomOverflowShedsFast(t *testing.T) {
	q := newQuota(1, 1)
	q.tryAcquire()
	go q.acquire(context.Background(), time.Second, nil) // fills the room
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	if q.acquire(context.Background(), time.Second, nil) {
		t.Fatal("overflow acquire should fail fast")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("overflow shed took %v, want immediate", d)
	}
	q.release() // serve the queued waiter
}

func TestQuotaContextCancel(t *testing.T) {
	q := newQuota(1, 5)
	q.tryAcquire()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- q.acquire(ctx, time.Minute, nil) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("canceled acquire reported success")
		}
	case <-time.After(time.Second):
		t.Fatal("canceled acquire did not return")
	}
	// The withdrawn waiter must not absorb the next release.
	q.release()
	if !q.tryAcquire() {
		t.Fatal("slot lost after canceled waiter withdrew")
	}
}

func TestQuotaSetCapDrainsWaiters(t *testing.T) {
	q := newQuota(1, 5)
	q.tryAcquire()
	done := make(chan bool, 1)
	go func() { done <- q.acquire(context.Background(), time.Minute, nil) }()
	time.Sleep(10 * time.Millisecond)
	q.setCap(2, 5) // growing the cap should admit the waiter immediately
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("waiter rejected after cap grew")
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not drained after cap grew")
	}
	used, capSlots, _ := q.state()
	if used != 2 || capSlots != 2 {
		t.Fatalf("state = (%d used, %d cap), want (2, 2)", used, capSlots)
	}
}

func TestQuotaReleaseHandsSlotExactlyOnce(t *testing.T) {
	q := newQuota(1, 1)
	q.tryAcquire()
	got := make(chan bool, 1)
	go func() { got <- q.acquire(context.Background(), time.Second, nil) }()
	time.Sleep(10 * time.Millisecond)
	q.release()
	if ok := <-got; !ok {
		t.Fatal("queued waiter should receive the released slot")
	}
	if q.tryAcquire() {
		t.Fatal("slot double-granted: tryAcquire succeeded while handed off")
	}
}
