package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// fleetSize is the number of fscluster nodes; clients enter through the
// first ones, and the last is reached only through cluster forwards.
const fleetSize = 3

// node is one in-process fsserve instance on a loopback listener.
type node struct {
	addr string
	svc  *service.Server
	http *http.Server
	done chan error
}

type fleet struct{ nodes []*node }

// startFleet boots fleetSize servers with the default service
// configuration joined into one cluster. Request logs are formatted as
// fsserve formats them and then discarded, so their cost stays in the
// measurement without flooding the benchmark's output.
func startFleet() (*fleet, error) {
	lns := make([]net.Listener, fleetSize)
	addrs := make([]string, fleetSize)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{}
	for i, ln := range lns {
		svc := service.New(service.Config{
			Logger:  logger,
			Cluster: &service.ClusterConfig{Advertise: addrs[i], Peers: addrs},
		})
		n := &node{addr: addrs[i], svc: svc, http: &http.Server{Handler: svc.Handler()}, done: make(chan error, 1)}
		go func() { n.done <- n.http.Serve(ln) }()
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// close stops every node and waits for its serve loop and background
// goroutines to end. Nothing is in flight when a fleet is closed, so it
// closes connections outright: a graceful Shutdown would wait up to
// five seconds for peer connections that were dialed but never used.
func (f *fleet) close() error {
	var errs []error
	for _, n := range f.nodes {
		n.svc.BeginShutdown()
		errs = append(errs, n.http.Close())
	}
	for _, n := range f.nodes {
		if err := <-n.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, n.svc.Close())
	}
	return errors.Join(errs...)
}

// client is one caller: a single keep-alive connection pinned to one
// entry node.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is what one call returned. body aliases the client's read
// buffer and is valid until the client's next call.
type reply struct {
	status int
	xcache string
	body   []byte
}

func (c *client) post(r *request) (reply, error) {
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), body: c.buf.Bytes()}, nil
}

// bodyID identifies one distinct response body of one key.
type bodyID struct {
	key  int32
	sum  uint32
	size int32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// outcome is the record of one sent request, kept small because
// service-hot records several hundred thousand.
type outcome struct {
	// done is when the reply arrived, as an offset from the start of
	// the sequence.
	done   time.Duration
	lat    time.Duration
	body   bodyID
	status int16
	hit    bool // X-Cache: hit
	failed bool // transport error
}

// drive sends seq (indices into keys) through the clients as a closed
// loop: each client sends its next request only after the previous
// reply, taking requests from the shared sequence in order. It returns
// one outcome per request. With inline set, each reply is decoded into
// its verdict as soon as it is timed (the returned verdicts), so no
// body outlives its request; otherwise drive returns a copy of every
// distinct body, for sequences that repeat a few keys.
func drive(clients []*client, keys []*request, seq []int, inline bool) ([]outcome, map[bodyID][]byte, []string) {
	out := make([]outcome, len(seq))
	var verdicts []string
	if inline {
		verdicts = make([]string, len(seq))
	}
	bodies := make([]map[bodyID][]byte, len(clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for ci, c := range clients {
		bodies[ci] = map[bodyID][]byte{}
		wg.Add(1)
		go func(c *client, seen map[bodyID][]byte) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				r := keys[seq[i]]
				start := time.Now()
				rep, err := c.post(r)
				end := time.Now()
				o := outcome{done: end.Sub(begin), lat: end.Sub(start), status: int16(rep.status), hit: rep.xcache == "hit", failed: err != nil}
				if err == nil {
					o.body = bodyID{key: int32(seq[i]), sum: crc32.Checksum(rep.body, castagnoli), size: int32(len(rep.body))}
					switch {
					case inline:
						verdicts[i] = verdictOrError(r.path, rep.body)
					case seen[o.body] == nil:
						seen[o.body] = bytes.Clone(rep.body)
					}
				}
				out[i] = o
			}
		}(c, bodies[ci])
	}
	wg.Wait()
	merged := bodies[0]
	for _, m := range bodies[1:] {
		for id, b := range m {
			merged[id] = b
		}
	}
	return out, merged, verdicts
}

// scrape sums every /metrics series of every node by series name over
// its labels, so relabelled series keep their totals.
func (f *fleet) scrape() (map[string]float64, error) {
	sums := map[string]float64{}
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	for _, n := range f.nodes {
		resp, err := c.Get("http://" + n.addr + "/metrics")
		if err != nil {
			return nil, err
		}
		err = parseProm(resp.Body, sums)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// parseProm adds the samples of a Prometheus text exposition to sums,
// by series name over all labels.
func parseProm(r io.Reader, sums map[string]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			// A declared family without samples (a labelled counter
			// nothing has incremented yet) totals zero.
			sums[f[2]] += 0
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics line %q: %w", line, err)
		}
		sums[name] += v
	}
	return sc.Err()
}
