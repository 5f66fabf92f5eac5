package main

// The cluster benchmark record (BENCH_9.json): what a replica failure
// costs, measured end to end through cmd/gatorproxy's routing layer. Warm
// sessions are patched through a 2-replica proxy while one replica is
// killed mid-run. Patches on dead sessions 404; the benchmark recovers
// exactly as a real client does — re-create, re-patch — and records the
// tail latency of the failover window next to the steady state. The gates
// require zero unrecovered requests and at least one re-create (otherwise
// the kill missed every session and the run proved nothing).

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"gator/internal/benchrec"
	"gator/internal/cluster"
	"gator/internal/corpus"
	"gator/internal/server"
)

// benchCluster is a proxy over n in-process replicas, ready for load.
type benchCluster struct {
	hs     *http.Server
	reps   []*cluster.LocalReplica
	client *server.Client
}

func startBenchCluster(n int) (*benchCluster, error) {
	p := cluster.New(cluster.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: p.Handler()}
	go hs.Serve(ln)
	bc := &benchCluster{hs: hs, client: server.NewClient("http://" + ln.Addr().String())}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		lr, err := cluster.StartLocalReplica(name, server.Config{
			Workers:     1,
			QueueDepth:  256,
			NoTelemetry: true,
		})
		if err != nil {
			bc.close()
			return nil, err
		}
		bc.reps = append(bc.reps, lr)
		p.AddReplica(name, lr.URL())
	}
	return bc, nil
}

func (bc *benchCluster) close() {
	for _, lr := range bc.reps {
		lr.Kill()
	}
	bc.hs.Close()
}

// clusterRecord patches warm sessions through a 2-replica cluster, kills
// one replica mid-run, and recovers via the client's 404 → re-create
// path, recording tail latencies and the recovery counts.
func clusterRecord(benchRun) (*benchrec.Record, error) {
	const (
		sessions    = 8
		steadyRound = 3 // patch rounds before the kill
		failRounds  = 3 // patch rounds after the kill
	)
	bc, err := startBenchCluster(2)
	if err != nil {
		return nil, err
	}
	defer bc.close()

	sources, layouts := corpus.ModularApp(6)
	openReq := func(i int) server.AnalyzeRequest {
		return server.AnalyzeRequest{
			Name: fmt.Sprintf("sess-%d", i), Sources: sources, Layouts: layouts,
			ReportSpec: server.ReportSpec{Report: "summary"},
		}
	}
	ids := make([]string, sessions)
	for i := range ids {
		open, err := bc.client.OpenSession(openReq(i))
		if err != nil {
			return nil, err
		}
		ids[i] = open.SessionID
	}

	patch := func(i, round int) server.PatchRequest {
		return server.PatchRequest{
			Sources:    map[string]string{"extra.alite": fmt.Sprintf("class Extra%d_%d {}", i, round)},
			ReportSpec: server.ReportSpec{Report: "summary"},
		}
	}

	// patchAll runs one concurrent patch round over every session,
	// recovering 404s by re-creating (recover=true). Returns latencies.
	var recreates, failed int
	var mu sync.Mutex
	patchAll := func(round int, recover bool) []time.Duration {
		lats := make([]time.Duration, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start := time.Now()
				_, err := bc.client.PatchSession(ids[i], patch(i, round))
				var se *server.StatusError
				if err != nil && recover && errors.As(err, &se) && se.Code == http.StatusNotFound {
					// The replica owning this session died: the client
					// contract is re-create, then continue patching.
					reopened, rerr := bc.client.OpenSession(openReq(i))
					if rerr == nil {
						mu.Lock()
						recreates++
						ids[i] = reopened.SessionID
						mu.Unlock()
						_, err = bc.client.PatchSession(reopened.SessionID, patch(i, round))
					} else {
						err = rerr
					}
				}
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
				lats[i] = time.Since(start)
			}(i)
		}
		wg.Wait()
		return lats
	}

	var steady, failover []time.Duration
	for round := 0; round < steadyRound; round++ {
		steady = append(steady, patchAll(round, false)...)
	}
	bc.reps[0].Kill() // mid-run: half the ring (and its sessions) vanish
	for round := 0; round < failRounds; round++ {
		failover = append(failover, patchAll(steadyRound+round, true)...)
	}

	p99 := func(lats []time.Duration) float64 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return ms(lats[(len(lats)*99)/100])
	}
	if recreates == 0 {
		return nil, errors.New("the kill missed every session; the failover measurement proved nothing")
	}
	rec := &benchrec.Record{Context: map[string]string{
		"cores":            strconv.Itoa(runtime.NumCPU()),
		"failoverSessions": strconv.Itoa(sessions),
		"failoverPatches":  strconv.Itoa(len(steady) + len(failover)),
	}}
	rec.Add(
		benchrec.LowerIsBetter("steadyP99Ms", "ms", p99(steady)),
		// A kill may cost the affected sessions a re-create (one cold
		// solve), never a stall; the ceiling is absolute wall-clock.
		benchrec.LowerIsBetter("failoverP99Ms", "ms", p99(failover)).WithLimit(2000),
		benchrec.HigherIsBetter("recreates", "count", float64(recreates)).WithLimit(1),
		benchrec.LowerIsBetter("failedRequests", "count", float64(failed)).WithLimit(0),
	)
	return rec, nil
}
