package lru

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Get("a") // refresh a; b becomes LRU
	c.Put("c", 3, 1)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Error("a should have survived")
	}
	if s := c.Stats(); s.Len != 2 || s.Evictions != 1 {
		t.Errorf("Len = %d, Evictions = %d, want 2 and 1", s.Len, s.Evictions)
	}
}

// model is the reference LRU: a slice ordered most recent first, scanned
// linearly for everything.
type model struct {
	budget    int64
	items     []modelItem
	evictions int64
}

type modelItem struct {
	key  string
	val  int
	cost int64
}

func (m *model) find(key string) int {
	for i, it := range m.items {
		if it.key == key {
			return i
		}
	}
	return -1
}

func (m *model) cost() int64 {
	var sum int64
	for _, it := range m.items {
		sum += it.cost
	}
	return sum
}

func (m *model) remove(i int) modelItem {
	it := m.items[i]
	m.items = append(m.items[:i], m.items[i+1:]...)
	return it
}

func (m *model) get(key string) (int, bool) {
	i := m.find(key)
	if i < 0 {
		return 0, false
	}
	it := m.remove(i)
	m.items = append([]modelItem{it}, m.items...)
	return it.val, true
}

func (m *model) peek(key string) (int, bool) {
	if i := m.find(key); i >= 0 {
		return m.items[i].val, true
	}
	return 0, false
}

func (m *model) put(key string, val int, cost int64) {
	if i := m.find(key); i >= 0 {
		m.remove(i)
	}
	if cost > m.budget {
		return
	}
	m.items = append([]modelItem{{key, val, cost}}, m.items...)
	m.trim(m.budget)
}

func (m *model) trim(budget int64) {
	for len(m.items) > 0 && m.cost() > budget {
		m.remove(len(m.items) - 1)
		m.evictions++
	}
}

// TestDifferentialAgainstModel runs seeded random operation sequences on
// the cache and on the reference model, and compares membership,
// most-recent-first order, total cost and evictions after every operation.
// Costs span zero to more than the whole budget.
func TestDifferentialAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := int64(rng.Intn(40))
		c := New[int](budget)
		m := &model{budget: budget}
		for op := 0; op < 2000; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(12))
			var desc string
			switch r := rng.Intn(9); {
			case r < 3:
				desc = "Get " + key
				gv, gok := c.Get(key)
				mv, mok := m.get(key)
				if gv != mv || gok != mok {
					t.Fatalf("seed %d op %d %s = %d,%v, model %d,%v", seed, op, desc, gv, gok, mv, mok)
				}
			case r < 4:
				desc = "Peek " + key
				gv, gok := c.Peek(key)
				mv, mok := m.peek(key)
				if gv != mv || gok != mok {
					t.Fatalf("seed %d op %d %s = %d,%v, model %d,%v", seed, op, desc, gv, gok, mv, mok)
				}
			case r < 8:
				val, cost := rng.Int(), int64(rng.Intn(int(budget)/2+3))
				if rng.Intn(20) == 0 {
					cost = budget + 1 + int64(rng.Intn(5)) // costlier than the whole budget
				}
				desc = fmt.Sprintf("Put %s cost %d", key, cost)
				c.Put(key, val, cost)
				m.put(key, val, cost)
			default:
				b := int64(rng.Intn(int(budget)+2)) - 1
				desc = fmt.Sprintf("Trim %d", b)
				c.Trim(b)
				m.trim(b)
			}

			var got []modelItem
			c.Range(func(k string, v int) bool {
				got = append(got, modelItem{key: k, val: v})
				return true
			})
			want := make([]modelItem, len(m.items))
			for i, it := range m.items {
				want[i] = modelItem{key: it.key, val: it.val}
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("seed %d op %d %s: order %v, model %v", seed, op, desc, got, want)
			}
			s := c.Stats()
			if s.Len != len(m.items) || s.Cost != m.cost() || s.Evictions != m.evictions {
				t.Fatalf("seed %d op %d %s: len/cost/evictions %d/%d/%d, model %d/%d/%d",
					seed, op, desc, s.Len, s.Cost, s.Evictions, len(m.items), m.cost(), m.evictions)
			}
			if s.Cost > budget {
				t.Fatalf("seed %d op %d %s: cost %d over budget %d", seed, op, desc, s.Cost, budget)
			}
		}
	}
}

func TestRangeStopsEarly(t *testing.T) {
	c := New[int](10)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprint(i), i, 1)
	}
	var seen []string
	c.Range(func(k string, _ int) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []string{"4", "3"}) {
		t.Errorf("Range visited %v, want [4 3]", seen)
	}
}

// TestConcurrentUse drives every operation from several goroutines at
// once (for the race detector) and then checks the cache's accounting
// against what Range sees.
func TestConcurrentUse(t *testing.T) {
	const budget = 20
	c := New[int](budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 2000; op++ {
				key := fmt.Sprintf("k%d", rng.Intn(16))
				switch rng.Intn(6) {
				case 0:
					c.Get(key)
				case 1:
					c.Peek(key)
				case 2:
					c.Put(key, op, int64(rng.Intn(8)))
				case 3:
					c.Trim(int64(rng.Intn(budget)))
				case 4:
					c.Range(func(string, int) bool { return rng.Intn(4) != 0 })
				default:
					c.Do(context.Background(), key, func(context.Context) (int, int64, error) {
						return op, int64(rng.Intn(8)), nil
					})
				}
			}
		}(int64(g))
	}
	wg.Wait()
	var n int
	c.Range(func(string, int) bool {
		n++
		return true
	})
	if s := c.Stats(); s.Len != n || s.Cost > budget || s.Cost < 0 {
		t.Errorf("stats %+v, Range saw %d values", s, n)
	}
}

// waitProbe is a context that reports its first Done call on a shared
// channel. A Do waiter first calls Done when it blocks on the lead's
// flight, so each report means one more caller has joined the build.
type waitProbe struct {
	context.Context
	once   sync.Once
	joined chan<- struct{}
}

func (p *waitProbe) Done() <-chan struct{} {
	p.once.Do(func() { p.joined <- struct{}{} })
	return p.Context.Done()
}

// coalesce runs n concurrent Do calls on key whose build waits until the
// other n-1 callers have joined it, then returns build's result. It
// reports each call's value, outcome and error, and how many builds ran.
func coalesce(c *Cache[int], n int, build func(context.Context) (int, int64, error)) (vals []int, outs []Outcome, errs []error, builds int) {
	joined := make(chan struct{}, n)
	var mu sync.Mutex
	vals, outs, errs = make([]int, n), make([]Outcome, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := &waitProbe{Context: context.Background(), joined: joined}
			vals[i], outs[i], errs[i] = c.Do(ctx, "k", func(ctx context.Context) (int, int64, error) {
				for j := 0; j < n-1; j++ {
					<-joined
				}
				mu.Lock()
				builds++
				mu.Unlock()
				return build(ctx)
			})
		}(i)
	}
	wg.Wait()
	return vals, outs, errs, builds
}

func TestDoCoalescesConcurrentCallers(t *testing.T) {
	c := New[int](10)
	vals, outs, errs, builds := coalesce(c, 8, func(context.Context) (int, int64, error) { return 42, 1, nil })
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}
	misses := 0
	for i := range vals {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("caller %d: %d, %v", i, vals[i], errs[i])
		}
		if outs[i] == Miss {
			misses++
		} else if outs[i] != Coalesced {
			t.Errorf("caller %d outcome %v, want coalesced", i, outs[i])
		}
	}
	if misses != 1 {
		t.Errorf("%d callers led, want 1", misses)
	}
	if s := c.Stats(); s.Misses != 1 || s.Coalesced != 7 || s.Hits != 0 || s.Len != 1 {
		t.Errorf("stats %+v, want 1 miss, 7 coalesced, 1 resident", s)
	}
	if v, out, err := c.Do(context.Background(), "k", nil); v != 42 || out != Hit || err != nil {
		t.Errorf("later Do = %d, %v, %v, want a hit on 42", v, out, err)
	}
}

func TestDoCancelledWaiterLeavesBuildRunning(t *testing.T) {
	c := New[int](10)
	joined := make(chan struct{}, 1)
	started, release := make(chan struct{}), make(chan struct{})
	lead := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (int, int64, error) {
			close(started)
			<-release
			return 7, 1, nil
		})
		lead <- err
	}()
	<-started // the lead owns the flight
	wctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, out, err := c.Do(&waitProbe{Context: wctx, joined: joined}, "k", func(context.Context) (int, int64, error) {
			t.Error("waiter ran a build")
			return 0, 0, nil
		})
		if out != Coalesced {
			t.Errorf("waiter outcome %v, want coalesced", out)
		}
		waiter <- err
	}()
	<-joined
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-lead; err != nil {
		t.Fatalf("lead err = %v", err)
	}
	if v, ok := c.Peek("k"); !ok || v != 7 {
		t.Errorf("lead's value not stored: %d, %v", v, ok)
	}
}

func TestDoLiveWaiterTakesOverCancelledBuild(t *testing.T) {
	c := New[int](10)
	joined := make(chan struct{}, 1)
	leadCtx, cancelLead := context.WithCancel(context.Background())
	started := make(chan struct{})
	lead := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leadCtx, "k", func(ctx context.Context) (int, int64, error) {
			close(started)
			<-ctx.Done()
			return 0, 0, ctx.Err()
		})
		lead <- err
	}()
	<-started // the lead owns the flight
	type result struct {
		v   int
		out Outcome
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, out, err := c.Do(&waitProbe{Context: context.Background(), joined: joined}, "k",
			func(context.Context) (int, int64, error) { return 9, 1, nil })
		waiter <- result{v, out, err}
	}()
	<-joined
	cancelLead()
	if err := <-lead; !errors.Is(err, context.Canceled) {
		t.Fatalf("lead err = %v, want context.Canceled", err)
	}
	got := <-waiter
	if got.err != nil || got.v != 9 || got.out != Miss {
		t.Fatalf("waiter = %+v, want its own build's 9", got)
	}
	if s := c.Stats(); s.Misses != 2 || s.Len != 1 {
		t.Errorf("stats %+v, want 2 builds and the waiter's value resident", s)
	}
}

func TestDoBuildErrorReachesWaitersAndIsNotStored(t *testing.T) {
	c := New[int](10)
	boom := errors.New("boom")
	_, outs, errs, builds := coalesce(c, 4, func(context.Context) (int, int64, error) { return 0, 1, boom })
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d (%v) err = %v, want boom", i, outs[i], err)
		}
	}
	if s := c.Stats(); s.Len != 0 || s.Coalesced != 0 {
		t.Errorf("stats %+v: a failed build must not be stored or count as coalesced", s)
	}
	if v, out, err := c.Do(context.Background(), "k", func(context.Context) (int, int64, error) { return 5, 1, nil }); v != 5 || out != Miss || err != nil {
		t.Errorf("retry = %d, %v, %v, want a fresh build", v, out, err)
	}
}

func TestDoZeroBudgetCoalescesWithoutRetaining(t *testing.T) {
	c := New[int](0)
	vals, _, errs, builds := coalesce(c, 4, func(context.Context) (int, int64, error) { return 3, 1, nil })
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}
	for i := range vals {
		if errs[i] != nil || vals[i] != 3 {
			t.Fatalf("caller %d: %d, %v", i, vals[i], errs[i])
		}
	}
	if s := c.Stats(); s.Len != 0 || s.Cost != 0 {
		t.Errorf("stats %+v, want nothing retained", s)
	}
	if _, out, _ := c.Do(context.Background(), "k", func(context.Context) (int, int64, error) { return 3, 1, nil }); out != Miss {
		t.Errorf("later Do outcome %v, want a rebuild", out)
	}
}

func TestDoBuildPanicReleasesWaiters(t *testing.T) {
	c := New[int](10)
	joined := make(chan struct{}, 1)
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), "k", func(context.Context) (int, int64, error) {
			close(started)
			<-release
			panic("build failed")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do(&waitProbe{Context: context.Background(), joined: joined}, "k",
			func(context.Context) (int, int64, error) { return 1, 1, nil })
		waiter <- err
	}()
	<-joined
	close(release)
	if p := <-panicked; p != "build failed" {
		t.Errorf("lead recovered %v, want the build's panic", p)
	}
	if err := <-waiter; !errors.Is(err, errBuildPanicked) {
		t.Errorf("waiter err = %v, want errBuildPanicked", err)
	}
	if _, ok := c.Peek("k"); ok {
		t.Error("a panicked build was stored")
	}
}
