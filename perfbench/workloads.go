package main

import "fmt"

type opKind int

const (
	opDirect opKind = iota
	opSubject
	opObject
	opPublish
	opRevoke
	opDiscover
	nOps
)

var opNames = [nOps]string{"direct", "subject", "object", "publish", "revoke", "discover"}

// workload is one traffic mix over one coalition shape, drawn from the
// three kinds of dRBAC users: relying parties (queries and discovery),
// issuers (publish and revoke) and monitors (revocation pushes).
type workload struct {
	name string
	why  string

	rate   float64   // open-loop arrivals per second (Poisson)
	setups int       // set-ups per untraced run; setup_s is their median
	mix    [nOps]int // per-mille share of each operation
	ceil   float64   // closed-loop ops/s the write pools are sized for
	zipf   float64   // Zipf exponent over query pairs; 0 = uniform
	// Coalition shape.
	homes          int
	cluster        bool // the last home is a 2-shard cluster behind a gateway
	replica        bool // home 0 has a read-replica follower
	orgs           int
	usersPerOrg    int
	teams          int
	teamsPerUser   int
	resPerOrg      int
	partnersPerOrg int
	grants         int
	thirdParty     float64
	pairs          int // direct-query pairs at home 0
}

var workloads = []*workload{
	{
		name: "authz-hot",
		why:  "1k principals, 2k delegations, read-only Zipf queries over 2k pairs that fit the proof cache: remote, wire, transport and runtime dominate; open loop at 1200 ops/s",
		rate: 1200, setups: 11, mix: [nOps]int{800, 100, 100, 0, 0, 0}, ceil: 16000, zipf: 1.1,
		homes: 1, orgs: 10, usersPerOrg: 100, teams: 10, teamsPerUser: 2, resPerOrg: 2,
		partnersPerOrg: 3, grants: 4, thirdParty: 0.3, pairs: 2000,
	},
	{
		name: "churn",
		why:  "6k principals, 15k delegations past the entity-ID memo and proof cache, 70% uniform queries over 20k pairs beside 20% publishes and 10% monitored revokes, read replica; open loop at 600 ops/s",
		rate: 600, setups: 4, mix: [nOps]int{700, 0, 0, 200, 100, 0}, ceil: 3000,
		homes: 1, replica: true, orgs: 40, usersPerOrg: 160, teams: 25, teamsPerUser: 2, resPerOrg: 2,
		partnersPerOrg: 4, grants: 8, thirdParty: 0.3, pairs: 20000,
	},
	{
		name: "coalition",
		why:  "five homes on loopback TCP, one a 2-shard cluster behind a gateway, linked by 2-4-hop cross-home chains that a relying party discovers; open loop at 200 ops/s",
		rate: 200, setups: 7, mix: [nOps]int{500, 0, 0, 100, 100, 300}, ceil: 2000,
		homes: 5, cluster: true, orgs: 40, usersPerOrg: 125, teams: 20, teamsPerUser: 1, resPerOrg: 3,
		partnersPerOrg: 3, grants: 4, thirdParty: 0.3, pairs: 4000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns a copy shrunk by f for the harness self-tests.
func (w *workload) scaled(f int) *workload {
	c := *w
	if f <= 1 {
		return &c
	}
	c.usersPerOrg = max(4, w.usersPerOrg/f)
	c.pairs = max(40, w.pairs/f)
	c.rate = w.rate / 2
	c.ceil = w.ceil / 2
	return &c
}
