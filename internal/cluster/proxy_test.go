package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gator/internal/metrics"
	"gator/internal/server"
)

// Readiness is a cluster property: a proxy with no live replicas can
// accept nothing, so /readyz must say so.
func TestProxyReadiness(t *testing.T) {
	tc := startCluster(t, 0, server.Config{})
	if err := tc.client.Readyz(); err == nil {
		t.Fatal("readyz passed with zero replicas")
	}
	if err := tc.client.Healthz(); err != nil {
		t.Fatalf("healthz must pass regardless: %v", err)
	}

	lr, err := StartLocalReplica("solo", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lr.Kill)
	tc.proxy.AddReplica("solo", lr.URL())
	if err := tc.client.Readyz(); err != nil {
		t.Fatalf("readyz failed with a live replica: %v", err)
	}
}

// The proxy must route each app to exactly the replica the ring names,
// proven by the replica id the response carries.
func TestProxyRoutesByRingOwner(t *testing.T) {
	tc := startCluster(t, 3, server.Config{})
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("app-%d", i)
		want, ok := tc.proxy.OwnerOf(name)
		if !ok {
			t.Fatal("ring empty")
		}
		resp, err := tc.client.Analyze(figure1Request(name, "views"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Output == "" {
			t.Fatalf("%s: empty report", name)
		}
		got := analyzeReplica(t, tc, name)
		if got != want {
			t.Errorf("app %q served by %s, ring owner is %s", name, got, want)
		}
	}
}

// analyzeReplica reads the X-Gator-Replica header off a raw analyze
// round trip (the Go client deliberately hides headers).
func analyzeReplica(t *testing.T, tc *testCluster, app string) string {
	t.Helper()
	body := `{"name":"` + app + `","sources":{"a.alite":"class A {}"}}`
	req, _ := http.NewRequest("POST", tc.ts.URL+"/v1/analyze", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.AppHeader, app)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze %s: status %d", app, resp.StatusCode)
	}
	return resp.Header.Get(server.ReplicaHeader)
}

// Sessions stay sticky: every patch lands on the replica that created the
// session, and the session survives other replicas dying.
func TestProxySessionStickiness(t *testing.T) {
	tc := startCluster(t, 3, server.Config{})
	open, err := tc.client.OpenSession(figure1Request("sticky", "views"))
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := tc.proxy.sessionReplica(open.SessionID)
	if !ok {
		t.Fatal("proxy did not record the session route")
	}
	// Kill both non-owners: if stickiness holds, patches still work.
	for _, lr := range tc.replicas {
		if lr.Name != owner.name {
			lr.Kill()
		}
	}
	for round := 0; round < 3; round++ {
		patch := server.PatchRequest{
			Sources:    map[string]string{"extra.alite": fmt.Sprintf("class Extra%d {}", round)},
			ReportSpec: server.ReportSpec{Report: "views"},
		}
		resp, err := tc.client.PatchSession(open.SessionID, patch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if resp.SessionID != open.SessionID {
			t.Fatalf("round %d: session id changed", round)
		}
	}
	if err := tc.client.CloseSession(open.SessionID); err != nil {
		t.Fatal(err)
	}
	// The delete must also clear the proxy's route table.
	if _, ok := tc.proxy.sessionReplica(open.SessionID); ok {
		t.Fatal("route survived session delete")
	}
}

// Killing a session's replica turns its session into a 404 — the exact
// signal the client's re-create path keys on — while stateless analyzes
// fail over transparently to a surviving replica.
func TestProxyFailover(t *testing.T) {
	tc := startCluster(t, 2, server.Config{})
	open, err := tc.client.OpenSession(figure1Request("doomed", "views"))
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := tc.proxy.sessionReplica(open.SessionID)
	if !ok {
		t.Fatal("no session route")
	}
	tc.byName(owner.name).Kill()

	// Session route: dead owner → 404, never a 5xx.
	_, err = tc.client.PatchSession(open.SessionID, server.PatchRequest{
		Sources:    map[string]string{"x.alite": "class X {}"},
		ReportSpec: server.ReportSpec{Report: "views"},
	})
	var se *server.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("patch after owner death: got %v, want 404", err)
	}

	// The client's recovery path: re-create, then patch the new session.
	reopened, err := tc.client.OpenSession(figure1Request("doomed", "views"))
	if err != nil {
		t.Fatalf("re-create after failover: %v", err)
	}
	if reopened.Output != open.Output {
		t.Fatal("re-created session rendered different bytes")
	}
	if _, err := tc.client.PatchSession(reopened.SessionID, server.PatchRequest{
		Sources:    map[string]string{"x.alite": "class X {}"},
		ReportSpec: server.ReportSpec{Report: "views"},
	}); err != nil {
		t.Fatalf("patch on re-created session: %v", err)
	}

	// Stateless requests for apps the dead replica owned retry silently.
	for i := 0; i < 6; i++ {
		if _, err := tc.client.Analyze(figure1Request(fmt.Sprintf("fo-%d", i), "views")); err != nil {
			t.Fatalf("analyze after failover: %v", err)
		}
	}
	if live := tc.proxy.LiveReplicas(); len(live) != 1 {
		t.Fatalf("dead replica still on the ring: %v", live)
	}
	snap := tc.proxy.Registry().Snapshot()
	if snap.Counters["proxy.replica.evictions"] == 0 {
		t.Fatal("eviction not counted")
	}
}

// The prober must evict a dead replica and re-add a recovered one.
func TestProbeEvictsAndRejoins(t *testing.T) {
	tc := startCluster(t, 2, server.Config{})
	victim := tc.replicas[0]
	victim.Kill()
	tc.proxy.ProbeOnce() // failure 1
	tc.proxy.ProbeOnce() // failure 2 → evict
	if live := tc.proxy.LiveReplicas(); len(live) != 1 || live[0] != tc.replicas[1].Name {
		t.Fatalf("prober did not evict: %v", live)
	}

	// "Recovery": a fresh replica process under the dead one's name.
	reborn, err := StartLocalReplica(victim.Name, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reborn.Kill)
	tc.proxy.AddReplica(victim.Name, reborn.URL())
	tc.proxy.ProbeOnce()
	if live := tc.proxy.LiveReplicas(); len(live) != 2 {
		t.Fatalf("recovered replica not back on the ring: %v", live)
	}
}

// One replica's solve must be every replica's replay: with the shared
// tier in place, re-analyzing an app on a different replica reports
// Cached without re-solving.
func TestSharedTierCrossReplicaHit(t *testing.T) {
	tc := startCluster(t, 2, server.Config{})
	req := figure1Request("shared-app", "views")
	first, err := tc.client.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first analyze claims cached")
	}
	// Ask the NON-owner directly (bypassing the proxy's routing): its own
	// caches are cold, so a hit proves it consulted the shared tier.
	ownerName, _ := tc.proxy.OwnerOf("shared-app")
	var other *LocalReplica
	for _, lr := range tc.replicas {
		if lr.Name != ownerName {
			other = lr
		}
	}
	direct := server.NewClient(other.URL())
	second, err := direct.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("cross-replica analyze missed the shared tier")
	}
	if second.Output != first.Output || second.ExitCode != first.ExitCode {
		t.Fatal("shared-tier replay differs from the original solve")
	}
	snap := other.Srv.Registry().Snapshot()
	if snap.Counters["server.cache.shared_hits"] != 1 {
		t.Fatalf("shared_hits = %d, want 1", snap.Counters["server.cache.shared_hits"])
	}
}

// The rolled-up /metrics must re-parse with the validating parser, carry
// a replica label on every replica sample, and include the proxy's own
// gatorproxy_ families.
func TestMetricsRollupEndToEnd(t *testing.T) {
	tc := startCluster(t, 2, server.Config{})
	for i := 0; i < 4; i++ {
		if _, err := tc.client.Analyze(figure1Request(fmt.Sprintf("m-%d", i), "views")); err != nil {
			t.Fatal(err)
		}
	}
	data, err := tc.client.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(data)
	if err != nil {
		t.Fatalf("rollup invalid: %v\n%s", err, data)
	}
	reqFam := fams["gatord_server_analyze_requests_total"]
	if reqFam == nil {
		names := make([]string, 0, len(fams))
		for n := range fams {
			names = append(names, n)
		}
		t.Fatalf("no analyze-request family in rollup; families: %v", names)
	}
	var total float64
	for _, s := range reqFam.Samples {
		if s.Labels["replica"] == "" {
			t.Fatalf("replica sample without replica label: %v", s)
		}
		total += s.Value
	}
	if total != 4 {
		t.Fatalf("rollup lost requests: summed %v, want 4", total)
	}
	found := false
	for name := range fams {
		if strings.HasPrefix(name, "gatorproxy_") {
			found = true
		}
	}
	if !found {
		t.Fatal("proxy's own metrics missing from rollup")
	}
	up := fams["gatorproxy_replica_up"]
	if up == nil || len(up.Samples) != 2 {
		t.Fatalf("replica_up gauges wrong: %+v", up)
	}
}

// A client canceling its own request must never evict a healthy replica:
// the forward fails with context.Canceled, but that is the client's fault,
// and punishing the replica would drop every warm session route it owns.
func TestClientCancelDoesNotEvict(t *testing.T) {
	tc := startCluster(t, 2, server.Config{})
	open, err := tc.client.OpenSession(figure1Request("cancel-app", "views"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the forward even starts

	// Stateless path: the retry loop must not march the dead context
	// across the ring evicting everyone.
	body := `{"name":"cancel-app","sources":{"a.alite":"class A {}"}}`
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body)).WithContext(ctx)
	tc.proxy.Handler().ServeHTTP(httptest.NewRecorder(), req)

	// Session path: the sticky route must survive the abort.
	sreq := httptest.NewRequest("PATCH", "/v1/sessions/"+open.SessionID,
		strings.NewReader(`{"reportSpec":{"report":"views"}}`)).WithContext(ctx)
	tc.proxy.Handler().ServeHTTP(httptest.NewRecorder(), sreq)

	if live := tc.proxy.LiveReplicas(); len(live) != 2 {
		t.Fatalf("client abort evicted replicas: live=%v", live)
	}
	if _, ok := tc.proxy.sessionReplica(open.SessionID); !ok {
		t.Fatal("client abort wiped the session route")
	}
	snap := tc.proxy.Registry().Snapshot()
	if snap.Counters["proxy.replica.evictions"] != 0 {
		t.Fatalf("evictions = %d, want 0", snap.Counters["proxy.replica.evictions"])
	}
	if snap.Counters["proxy.client_aborts"] == 0 {
		t.Fatal("client aborts not counted")
	}
	// The replicas are genuinely fine: a normal request still works.
	if _, err := tc.client.Analyze(figure1Request("cancel-app", "views")); err != nil {
		t.Fatalf("analyze after client abort: %v", err)
	}
}

// A failed body read (client aborting its upload) is not a size violation:
// it must answer 400, reserving 413 for genuinely over-limit bodies.
func TestBodyReadErrorIsNot413(t *testing.T) {
	// Both rejections happen before any forward, so no replicas needed.
	p := New(Config{MaxRequestBytes: 1 << 20})
	req := httptest.NewRequest("POST", "/v1/analyze", errReader{})
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("read failure answered %d, want 400", rec.Code)
	}

	over := strings.NewReader(strings.Repeat("x", 1<<20+1))
	req = httptest.NewRequest("POST", "/v1/analyze", over)
	rec = httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body answered %d, want 413", rec.Code)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("client hung up mid-upload") }

// The session-table bound counts LIVE routes: ids already deleted via
// dropSession must not push live routes out, and the FIFO must not grow
// without bound under churn.
func TestSessionTableTrimSkipsDeadRoutes(t *testing.T) {
	p := New(Config{MaxSessionRoutes: 4})
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("dead-%d", i)
		p.recordSession(id, "r0")
		p.dropSession(id)
	}
	for i := 0; i < 4; i++ {
		p.recordSession(fmt.Sprintf("live-%d", i), "r0")
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("live-%d", i)
		p.mu.Lock()
		_, ok := p.sessions[id]
		p.mu.Unlock()
		if !ok {
			t.Fatalf("%s evicted while the table held only %d live routes", id, 4)
		}
	}
	// The bound still bites: a fifth live route evicts the oldest live one.
	p.recordSession("live-4", "r0")
	p.mu.Lock()
	_, oldestAlive := p.sessions["live-0"]
	total := len(p.sessions)
	fifoLen := len(p.sessFIFO)
	p.mu.Unlock()
	if oldestAlive {
		t.Fatal("over-bound insert did not evict the oldest live route")
	}
	if total != 4 {
		t.Fatalf("table holds %d routes, want 4", total)
	}
	if fifoLen > 2*4+64 {
		t.Fatalf("FIFO grew to %d entries under churn; dead ids are not being compacted", fifoLen)
	}
}

// Re-registering a replica at a new address while probes are in flight
// must be race-free (replicaState instances are immutable per address) and
// must converge on the latest address.
func TestReRegisterDuringProbes(t *testing.T) {
	tc := startCluster(t, 2, server.Config{})
	name := tc.replicas[0].Name
	addrA, addrB := tc.replicas[0].URL(), tc.replicas[1].URL()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			tc.proxy.AddReplica(name, addrA)
			tc.proxy.AddReplica(name, addrB)
		}
	}()
	for i := 0; i < 10; i++ {
		tc.proxy.ProbeOnce()
	}
	<-done
	tc.proxy.AddReplica(name, addrA)
	tc.proxy.ProbeOnce()
	if live := tc.proxy.LiveReplicas(); len(live) != 2 {
		t.Fatalf("replicas lost across re-registration: %v", live)
	}
	if _, err := tc.client.Analyze(figure1Request("reregister", "views")); err != nil {
		t.Fatalf("analyze after re-registration churn: %v", err)
	}
}

// An unknown path must answer with the daemon's JSON error shape.
func TestProxyUnknownRoute(t *testing.T) {
	tc := startCluster(t, 1, server.Config{})
	resp, err := http.Get(tc.ts.URL + "/v1/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content type %q", ct)
	}
}

// The proxy must forward concurrently: four fake replicas each hold their
// request until four are in flight at once, so a proxy that serialises
// forwarding (say, by holding its lock across the round trip) never gets
// past the first and every request times out.
func TestProxyForwardsConcurrently(t *testing.T) {
	const n = 4
	var inFlight atomic.Int32
	allIn := make(chan struct{})
	p := New(Config{})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if inFlight.Add(1) == n {
				close(allIn)
			}
			select {
			case <-allIn:
				w.Header().Set(server.ReplicaHeader, name)
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{}`)
			case <-time.After(5 * time.Second):
				http.Error(w, "fewer than four forwards in flight at once", http.StatusGatewayTimeout)
			}
		}))
		t.Cleanup(fake.Close)
		p.AddReplica(name, fake.URL)
	}
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)

	// One app per replica, so the requests also exercise the ring's spread.
	appFor := map[string]string{}
	for i := 0; len(appFor) < n; i++ {
		app := fmt.Sprintf("app-%d", i)
		owner, _ := p.OwnerOf(app)
		if _, ok := appFor[owner]; !ok {
			appFor[owner] = app
		}
	}
	var wg sync.WaitGroup
	for owner, app := range appFor {
		wg.Add(1)
		go func(owner, app string) {
			defer wg.Done()
			resp, err := http.Post(front.URL+"/v1/analyze", "application/json",
				strings.NewReader(`{"name":"`+app+`"}`))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", app, resp.StatusCode, body)
			} else if got := resp.Header.Get(server.ReplicaHeader); got != owner {
				t.Errorf("%s: served by %s, ring owner is %s", app, got, owner)
			}
		}(owner, app)
	}
	wg.Wait()
}
