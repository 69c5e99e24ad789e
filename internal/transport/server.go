package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// serverConn is the accept side of one peer connection: a decode loop that
// reads request frames and hands each to the process-wide worker pool, so
// one slow handler delays neither the decoding of the peer's next request
// nor the responses of faster handlers. The connection owns no worker
// goroutines of its own — an idle connection costs one parked decode loop —
// and a semaphore bounds its requests in flight at 2×ServerWorkers, the
// bound a queue of ServerWorkers requests in front of ServerWorkers
// workers gives: beyond it the decode loop stops reading until a handler
// finishes. Handlers write responses back — out of order, keyed by call ID
// — through the connection's coalescing frameWriter: the last in-flight
// handler flushes the batch inline, earlier ones leave their frames for the
// writer's flush task.
type serverConn struct {
	t        *TCP
	w        *frameWriter
	slots    chan struct{}  // in-flight semaphore, capacity 2×ServerWorkers
	inflight atomic.Int32   // requests dispatched but not yet responded to
	handlers sync.WaitGroup // dispatched handlers, awaited on teardown
}

// serverJob carries one request to a pool worker. Jobs are recycled, so
// dispatching a request allocates nothing.
type serverJob struct {
	s   *serverConn
	req parsedRequest
}

var serverJobs = sync.Pool{New: func() any { return new(serverJob) }}

func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	if err := readPreamble(br); err != nil {
		return // wrong protocol or version; drop the peer
	}
	s := &serverConn{t: t, w: newFrameWriter(conn, t.rpcTimeout, t.GroupBacklogLimit, &t.obs), slots: make(chan struct{}, 2*t.serverWorkers())}
	defer s.w.close()
	defer s.handlers.Wait()

	for {
		blob, err := readFrameBlob(br)
		if err != nil {
			return // peer closed or garbage framing
		}
		body := blob.Bytes()
		t.obs.bytesRecv.Add(uint64(len(body)) + 4)
		frameType, callID, gid, rest, err := frameHeader(body)
		if err != nil || frameType != frameRequest {
			blob.Release()
			return
		}
		req, err := parseRequest(callID, gid, rest, blob)
		if err != nil {
			// The frame boundary is intact, so only this call is
			// poisoned: answer it with an error and keep serving.
			s.respond(callID, gid, fmt.Sprintf("transport: bad request: %v", err), 0, nil, true)
			continue
		}
		// A pipelined burst is dispatched without blocking — handing a
		// task to a parked worker only makes it runnable — so the whole
		// burst is in flight before the first handler finishes, which is
		// what lets the last finishing handler flush every response in one
		// syscall.
		s.slots <- struct{}{}
		s.inflight.Add(1)
		s.handlers.Add(1)
		j := serverJobs.Get().(*serverJob)
		j.s, j.req = s, req
		// Never inline on the decode loop: a multicast handler blocks until
		// its whole subtree completes, and the loop must keep reading.
		goTask(j)
	}
}

// Run serves the job's request on a pool worker.
func (j *serverJob) Run() {
	s, req := j.s, j.req
	*j = serverJob{}
	serverJobs.Put(j)
	s.serve(req)
}

// serve runs one request's handler and writes its response.
func (s *serverConn) serve(req parsedRequest) {
	defer s.handlers.Done()
	errMsg, errCode, payload, decoded := s.handle(req)
	s.t.obs.served.Inc()
	// The last in-flight handler flushes the whole batch inline; anyone
	// still behind it leaves the frame to the flush task.
	inline := s.inflight.Add(-1) == 0
	s.respond(req.callID, req.gid, errMsg, errCode, payload, inline)
	<-s.slots
	// The response is written (its writer holds its own blob references if
	// it shares the payload), so the request's payload lifetime ends: first
	// the decoded value's reference, then the frame body itself. Handlers
	// only borrow the payload; anything they keep past return is a copy,
	// per the delivery contract.
	if pr, ok := decoded.(PayloadReleaser); ok {
		pr.ReleasePayload()
	}
	req.body.Release()
}

// handle decodes one request's payload and invokes the handler, returning
// the response to write — error text plus its wire status code — and the
// decoded payload (so serve can release a blob-backed payload after the
// response is out).
func (s *serverConn) handle(req parsedRequest) (errMsg string, errCode uint64, payload, decoded any) {
	decoded, err := decodePayloadOwned(req.payload, req.body, s.t.obs.encodes)
	if err != nil {
		return fmt.Sprintf("transport: bad payload: %v", err), 0, nil, nil
	}
	s.t.mu.Lock()
	h := s.t.local[req.gid][req.to]
	s.t.mu.Unlock()
	if h == nil {
		if req.gid != DefaultGroup {
			return fmt.Sprintf("transport: no endpoint %q in group %d here", req.to, req.gid), 0, nil, decoded
		}
		return fmt.Sprintf("transport: no endpoint %q here", req.to), 0, nil, decoded
	}
	resp, herr := h(req.from, req.kind, decoded)
	if herr != nil {
		return herr.Error(), statusCodeFor(herr), nil, decoded
	}
	return "", 0, resp, decoded
}

// respond writes one response frame, echoing the request's group label so
// the writer's per-group accounting sees both directions. An unencodable
// response payload is downgraded to an error response so the caller fails
// fast instead of timing out.
func (s *serverConn) respond(callID, gid uint64, errMsg string, errCode uint64, payload any, inline bool) {
	err := s.w.writeResponse(callID, gid, errMsg, errCode, payload, inline)
	var encErr *encodeError
	if errors.As(err, &encErr) {
		_ = s.w.writeResponse(callID, gid, fmt.Sprintf("transport: encode response: %v", encErr.Unwrap()), 0, nil, inline)
	}
	// Any other error is a dead socket; the decode loop exits on its own.
}
