#include "server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "socket.hpp"
#include "wire.hpp"
#include "zc/streaming.hpp"

namespace cuzc::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

struct NetServer::Impl {
    /// Self-pipe that interrupts poll(): written by the completion
    /// callback (see on_complete) and by shutdown().
    struct WakePipe {
        int r = -1, w = -1;
        WakePipe() {
            int fds[2] = {-1, -1};
            if (::pipe(fds) != 0) throw std::runtime_error("net: pipe() failed");
            r = fds[0];
            w = fds[1];
            set_nonblocking(r);
            set_nonblocking(w);
        }
        ~WakePipe() {
            if (r >= 0) ::close(r);
            if (w >= 0) ::close(w);
        }
    };

    explicit Impl(NetServerConfig c) : cfg(std::move(c)), service(cfg.service) {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd < 0) throw std::runtime_error("net: socket() failed");
        const int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(cfg.port);
        if (::inet_pton(AF_INET, cfg.bind_address.c_str(), &addr.sin_addr) != 1) {
            ::close(listen_fd);
            throw std::runtime_error("net: bad bind address '" + cfg.bind_address + "'");
        }
        if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
            ::listen(listen_fd, 64) != 0) {
            const std::string why = std::strerror(errno);
            ::close(listen_fd);
            listen_fd = -1;
            throw std::runtime_error("net: cannot listen on " + cfg.bind_address + ":" +
                                     std::to_string(cfg.port) + " (" + why + ")");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
        bound_port = ntohs(bound.sin_port);
        set_nonblocking(listen_fd);
    }

    ~Impl() {
        if (listen_fd >= 0) ::close(listen_fd);
    }

    /// One open v2 streaming session: chunks feed the incremental assessor
    /// as they arrive, so server memory stays bounded by the assessor's
    /// histograms regardless of the dataset size declared in StreamBegin.
    struct Stream {
        StreamBegin decl;
        std::uint64_t next_seq = 0;  ///< chunks applied so far
        std::uint64_t elements = 0;  ///< elements applied so far
        zc::StreamingAssessor assessor;

        explicit Stream(const StreamBegin& d) : decl(d), assessor(d.cfg) {}
    };

    struct Conn {
        FrameSocket sock;
        std::uint64_t id = 0;
        std::size_t inflight = 0;  ///< requests submitted, response not yet queued
        /// Wire revision negotiated by the Hello (stream frames need >= 2).
        std::uint16_t version = kVersion;
        /// Open streaming sessions by stream id (the frames' request_id).
        /// Deliberately *not* part of the in-flight read gate: progressing
        /// a stream requires reading more chunks, so gating POLLIN on open
        /// streams would wedge them; max_streams_per_connection is their
        /// own admission bound.
        std::unordered_map<std::uint64_t, Stream> streams;
        /// Stream ids this server reject-settled while the peer may still
        /// have had frames for them in flight. A later StreamBegin reusing
        /// one of these ids must fail deterministically: the stale chunks
        /// racing down the pipe would otherwise feed the "new" stream and
        /// resurrect the state the settle was supposed to kill. Client
        /// aborts don't retire an id — TCP ordering guarantees no frame
        /// for the old incarnation can arrive after the abort.
        std::unordered_set<std::uint64_t> retired_streams;
        bool handshaken = false;
        bool goodbye = false;
        Clock::time_point opened;
        Clock::time_point last_activity;

        explicit Conn(FrameSocket s) : sock(std::move(s)) {}
    };

    /// Wire identity of a submitted request.
    struct Ticket {
        std::uint64_t conn_id = 0;
        std::uint64_t request_id = 0;
    };

    /// A service response waiting for the loop to encode and queue it.
    struct Completion {
        std::size_t ticket = 0;
        serve::AssessResponse resp;
    };

    NetServerConfig cfg;
    WakePipe wake;
    /// Responses handed over by the service's completion callback, in
    /// completion order. Declared (like `wake`) before `service`, whose
    /// destructor joins the workers that still call on_complete().
    std::mutex completed_mu;
    std::vector<Completion> completed;
    serve::AssessService service;
    int listen_fd = -1;
    std::uint16_t bound_port = 0;

    std::unordered_map<std::uint64_t, Conn> conns;
    std::uint64_t next_conn_id = 1;
    /// Tickets of the requests submitted to the service and not yet
    /// settled, indexed by the slot number their completion callback
    /// carries (loop thread only). A slot number keeps the callback inside
    /// std::function's inline storage: capturing both ids instead put a
    /// heap node per request on this thread that a worker then freed, which
    /// raised peak RSS on the loopback-mixed benchmark by ~8% (glibc
    /// malloc, 4-core x86 VM).
    std::vector<Ticket> tickets;
    std::vector<std::size_t> free_tickets;
    /// The loop's half of the `completed` swap (keeps its capacity).
    std::vector<Completion> settling;

    std::atomic<bool> draining{false};
    std::atomic<bool> loop_running{false};
    std::thread loop_thread;
    std::mutex start_mu;

    mutable std::mutex tele_mu;
    serve::NetTelemetry tele;

    // --- Event loop ----------------------------------------------------

    void run() {
        bool drain_seen = false;
        Clock::time_point drain_start{};
        for (;;) {
            if (draining.load(std::memory_order_acquire) && !drain_seen) {
                drain_seen = true;
                drain_start = Clock::now();
                if (listen_fd >= 0) {
                    ::close(listen_fd);
                    listen_fd = -1;
                }
                // Drain stops reading, so an open stream can never receive
                // its remaining chunks: settle each now with a rejected
                // response so the request ledger closes (in_flight -> 0)
                // and the client's wait() returns instead of timing out.
                std::vector<std::uint64_t> ids;
                ids.reserve(conns.size());
                for (auto& [id, conn] : conns) ids.push_back(id);
                for (std::uint64_t id : ids) {
                    settle_streams_rejected(id, "server draining");
                }
            }
            if (drain_seen) {
                // Drained: every accepted request settled and every
                // response flushed (or the grace expired on stuck peers).
                const bool flushed = std::all_of(
                    conns.begin(), conns.end(),
                    [](const auto& kv) { return kv.second.sock.queued_bytes() == 0; });
                const bool grace_over =
                    seconds_between(drain_start, Clock::now()) > kDrainGraceSeconds;
                const bool settled = tickets.size() == free_tickets.size();
                if ((settled && flushed) || grace_over) {
                    std::vector<std::uint64_t> ids;
                    ids.reserve(conns.size());
                    for (auto& [id, conn] : conns) ids.push_back(id);
                    for (std::uint64_t id : ids) close_conn(id);
                    break;
                }
            }

            std::vector<pollfd> fds;
            std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = control)
            fds.push_back({wake.r, POLLIN, 0});
            fd_conn.push_back(0);
            if (!drain_seen && listen_fd >= 0 && conns.size() < cfg.max_connections) {
                fds.push_back({listen_fd, POLLIN, 0});
                fd_conn.push_back(0);
            }
            for (auto& [id, conn] : conns) {
                short events = 0;
                const bool read_open = !drain_seen && !conn.goodbye &&
                                       conn.inflight < cfg.max_inflight_per_connection &&
                                       conn.sock.may_buffer_more(cfg.max_read_buffer);
                if (read_open) events |= POLLIN;
                if (conn.sock.queued_bytes() > 0) events |= POLLOUT;
                // Always watch for hangup/errors even when backpressured.
                fds.push_back({conn.sock.fd(), events, 0});
                fd_conn.push_back(id);
            }

            // Completed responses interrupt poll() through the wake pipe
            // (on_complete), so the loop can sleep a full quantum even with
            // settles outstanding instead of spinning a 1 ms busy-wait
            // against the worker on single-core hosts.
            const int timeout_ms = 25;
            const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
            if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure

            if (fds[0].revents & POLLIN) {
                char buf[64];
                while (::read(wake.r, buf, sizeof(buf)) > 0) {
                }
            }
            for (std::size_t i = 1; i < fds.size(); ++i) {
                if (fd_conn[i] == 0) {
                    if (fds[i].revents & POLLIN) do_accept();
                    continue;
                }
                const std::uint64_t id = fd_conn[i];
                auto it = conns.find(id);
                if (it == conns.end()) continue;
                if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                    close_conn(id);
                    continue;
                }
                if (fds[i].revents & POLLIN) {
                    if (!do_read(id)) continue;  // connection closed
                }
                it = conns.find(id);
                if (it != conns.end() && (fds[i].revents & POLLOUT)) flush(it->second);
            }

            // Strictly after the pipe drain: a completion pushed after the
            // swap below finds the vector empty and writes the pipe again,
            // so no wake-up is lost.
            settle_completions();
            // Settled requests may have freed in-flight slots; frames that
            // were buffered while a connection sat at its cap parse now.
            {
                std::vector<std::uint64_t> ids;
                ids.reserve(conns.size());
                for (auto& [id, conn] : conns) {
                    if (conn.sock.inbound().buffered() >= FrameHeader::kSize) ids.push_back(id);
                }
                for (std::uint64_t id : ids) process_frames(id);
            }
            enforce_timers();
            reap_goodbyes();
        }
        loop_running.store(false, std::memory_order_release);
    }

    static constexpr double kDrainGraceSeconds = 10.0;

    void do_accept() {
        for (;;) {
            if (conns.size() >= cfg.max_connections) return;
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) return;  // EAGAIN or transient
            set_nonblocking(fd);
            tune_socket(fd, cfg.socket_buffer_bytes);
            const std::uint64_t id = next_conn_id++;
            Conn conn(FrameSocket(fd, cfg.max_frame_payload));
            conn.id = id;
            conn.opened = conn.last_activity = Clock::now();
            conns.emplace(id, std::move(conn));
            std::lock_guard lk(tele_mu);
            ++tele.connections_accepted;
            ++tele.connections_active;
        }
    }

    /// Returns false when the connection was closed. All per-connection
    /// work is id-based: enqueue_frame -> flush can disconnect a slow
    /// client and erase the Conn, so references are re-resolved after
    /// every call that might write.
    bool do_read(std::uint64_t id) {
        auto it = conns.find(id);
        if (it == conns.end()) return false;
        Conn& conn = it->second;
        // Two recv() chunks per pass, then yield to frame processing.
        const FrameSocket::Io io =
            conn.sock.receive(2 * FrameSocket::kRecvChunk, cfg.max_read_buffer);
        if (io.bytes > 0) {
            conn.last_activity = Clock::now();
            std::lock_guard lk(tele_mu);
            tele.bytes_rx += io.bytes;
        }
        if (io.eof || io.error != 0) {
            close_conn(id);
            return false;
        }
        return process_frames(id);
    }

    /// Returns false when the connection was closed.
    bool process_frames(std::uint64_t id) {
        for (;;) {
            auto it = conns.find(id);
            if (it == conns.end()) return false;
            Conn& conn = it->second;
            // Backpressure: past the in-flight cap, leave buffered frames
            // unparsed; the poll loop also stops reading the socket, and
            // settle_completions() re-drives parsing when slots free up.
            if (conn.inflight >= cfg.max_inflight_per_connection) return true;
            // Zero-copy: handle_frame decodes res.view before the next
            // assembler call, so the payload is never extracted.
            FrameAssembler::Result res = conn.sock.inbound().next_view();
            switch (res.status) {
                case FrameAssembler::Status::kNeedMore:
                    return true;
                case FrameAssembler::Status::kBadMagic:
                case FrameAssembler::Status::kBadVersion: {
                    // The stream cannot be resynchronized; drop the peer.
                    count_rejected_frame();
                    close_conn(id);
                    return false;
                }
                case FrameAssembler::Status::kOversize:
                case FrameAssembler::Status::kBadChecksum: {
                    // Pre-handshake peers get no protocol frames: close,
                    // like any other pre-Hello violation (a conforming
                    // client would otherwise see a Response before its
                    // HelloAck).
                    if (!conn.handshaken) {
                        count_rejected_frame();
                        close_conn(id);
                        return false;
                    }
                    reject_frame(conn, res.header.request_id,
                                 res.status == FrameAssembler::Status::kOversize
                                     ? "oversized frame rejected"
                                     : "frame checksum mismatch");
                    break;
                }
                case FrameAssembler::Status::kFrame: {
                    {
                        std::lock_guard lk(tele_mu);
                        ++tele.frames_rx;
                    }
                    // Last-resort containment: the decoders validate their
                    // inputs and throw WireError into handlers that catch
                    // it, but any exception escaping here (bad_alloc from a
                    // hostile-but-in-cap allocation, a future defect) must
                    // cost one connection, not the whole event loop —
                    // run() has no other catch and every other client dies
                    // with it.
                    try {
                        if (!handle_frame(id, res)) return false;
                    } catch (const std::exception&) {
                        count_rejected_frame();
                        close_conn(id);
                        return false;
                    }
                    break;
                }
            }
        }
    }

    /// Returns false when the connection was closed.
    bool handle_frame(std::uint64_t id, FrameAssembler::Result& res) {
        auto it = conns.find(id);
        if (it == conns.end()) return false;
        Conn& conn = it->second;
        const auto type = static_cast<FrameType>(res.header.type);
        if (!conn.handshaken) {
            if (type != FrameType::kHello) {
                count_rejected_frame();
                close_conn(id);
                return false;
            }
            try {
                conn.version = decode_hello(res.view);
            } catch (const WireError&) {
                count_rejected_frame();
                close_conn(id);
                return false;
            }
            conn.handshaken = true;
            HelloAck ack;
            ack.version = conn.version;
            ack.max_frame_payload = cfg.max_frame_payload;
            ack.max_inflight_per_connection = cfg.max_inflight_per_connection;
            ack.max_streams_per_connection = cfg.max_streams_per_connection;
            enqueue_frame(conn, encode_frame(FrameType::kHelloAck, 0, encode_hello_ack(ack)));
            return conns.count(id) != 0;
        }
        switch (type) {
            case FrameType::kRequest: {
                serve::AssessRequest req;
                try {
                    // Zero-copy: the decoded fields alias the payload in
                    // place, pinned by the assembler slab, all the way to
                    // the worker's device.
                    req = decode_request_view(res.view, res.slab);
                } catch (const WireError& e) {
                    return reject_frame(conn, res.header.request_id,
                                        std::string("bad request frame: ") + e.what());
                }
                ++conn.inflight;
                admit(/*stream=*/false);
                const std::size_t ticket = take_ticket({id, res.header.request_id});
                service.submit(std::move(req), [this, ticket](serve::AssessResponse r) {
                    on_complete({ticket, std::move(r)});
                });
                return true;
            }
            case FrameType::kGoodbye:
                conn.goodbye = true;
                // Goodbye stops reads, so an open stream can never finish;
                // settle each with a rejected response before the drain of
                // the write queue lets reap_goodbyes close the socket.
                settle_streams_rejected(id, "goodbye with the stream still open");
                return conns.count(id) != 0;
            case FrameType::kStreamBegin:
            case FrameType::kStreamChunk:
            case FrameType::kStreamEnd:
            case FrameType::kStreamAbort:
                if (conn.version < kVersionStreaming) {
                    // Stream frames on a v1-negotiated connection are a
                    // protocol violation, like any unknown frame type.
                    count_rejected_frame();
                    close_conn(id);
                    return false;
                }
                return handle_stream_frame(id, type, res);
            default:
                // A client must not send server-only frame types.
                count_rejected_frame();
                close_conn(id);
                return false;
        }
    }

    /// Returns false when the connection was closed. The header request_id
    /// of every stream frame is the stream id; the server settles a stream
    /// with exactly one kResponse frame echoing it (except client aborts,
    /// which are fire-and-forget).
    bool handle_stream_frame(std::uint64_t id, FrameType type, FrameAssembler::Result& res) {
        auto it = conns.find(id);
        if (it == conns.end()) return false;
        Conn& conn = it->second;
        const std::uint64_t sid = res.header.request_id;
        switch (type) {
            case FrameType::kStreamBegin: {
                StreamBegin sb;
                try {
                    sb = decode_stream_begin(res.view);
                } catch (const WireError& e) {
                    return reject_frame(conn, sid,
                                        std::string("bad stream-begin frame: ") + e.what());
                }
                if (conn.streams.count(sid) != 0) {
                    return reject_frame(conn, sid, "stream id already open");
                }
                if (conn.retired_streams.count(sid) != 0) {
                    return reject_frame(conn, sid,
                                        "stream id was already settled on this connection");
                }
                if (conn.streams.size() >= cfg.max_streams_per_connection) {
                    return reject_frame(conn, sid, "per-connection stream limit reached");
                }
                conn.streams.emplace(sid, Stream(sb));
                admit(/*stream=*/true);
                return true;
            }
            case FrameType::kStreamChunk: {
                auto sit = conn.streams.find(sid);
                if (sit == conn.streams.end()) {
                    // A chunk for a stream never opened (or already
                    // settled): drop it — the client learns the stream's
                    // fate from its settling response.
                    count_rejected_frame();
                    return true;
                }
                StreamChunkRef chunk;
                try {
                    // Zero-copy: the slices alias the payload in place and
                    // are consumed synchronously by the stream assessor.
                    chunk = decode_stream_chunk_ref(res.view, res.slab);
                } catch (const WireError& e) {
                    count_rejected_frame();
                    abort_stream_rejected(conn, sid,
                                          std::string("bad stream-chunk frame: ") + e.what());
                    return conns.count(id) != 0;
                }
                Stream& st = sit->second;
                const std::uint64_t volume = st.decl.dims.volume();
                if (chunk.seq != st.next_seq) {
                    abort_stream_rejected(conn, sid, "stream chunk out of sequence");
                    return conns.count(id) != 0;
                }
                if (st.next_seq >= st.decl.chunks) {
                    abort_stream_rejected(conn, sid, "more chunks than declared");
                    return conns.count(id) != 0;
                }
                if (st.elements + chunk.orig.size() > volume) {
                    abort_stream_rejected(conn, sid, "stream overruns the declared shape");
                    return conns.count(id) != 0;
                }
                st.assessor.feed(chunk.orig.data(), chunk.dec.data());
                ++st.next_seq;
                st.elements += chunk.orig.size();
                std::lock_guard lk(tele_mu);
                ++tele.stream_chunks;
                tele.stream_bytes += res.header.payload_len;
                return true;
            }
            case FrameType::kStreamEnd: {
                StreamEnd se;
                try {
                    se = decode_stream_end(res.view);
                } catch (const WireError& e) {
                    const std::string why = std::string("bad stream-end frame: ") + e.what();
                    if (conn.streams.count(sid) == 0) return reject_frame(conn, sid, why);
                    count_rejected_frame();
                    abort_stream_rejected(conn, sid, why);
                    return conns.count(id) != 0;
                }
                auto sit = conn.streams.find(sid);
                if (sit == conn.streams.end()) {
                    return reject_frame(conn, sid, "stream-end for an unknown stream");
                }
                Stream& st = sit->second;
                const std::uint64_t volume = st.decl.dims.volume();
                if (se.chunks != st.next_seq || se.elements != st.elements) {
                    abort_stream_rejected(conn, sid,
                                          "stream-end counts disagree with what arrived");
                    return conns.count(id) != 0;
                }
                if (st.next_seq != st.decl.chunks || st.elements != volume) {
                    abort_stream_rejected(conn, sid,
                                          "stream ended before the declared dataset arrived");
                    return conns.count(id) != 0;
                }
                serve::AssessResponse resp;
                resp.effective_cfg = st.decl.cfg;
                // Streaming computes the pattern-1 reduction family only;
                // the stencil/SSIM groups need whole-field neighborhoods.
                resp.effective_cfg.pattern2 = false;
                resp.effective_cfg.pattern3 = false;
                if (st.decl.cfg.pattern2) {
                    resp.degraded = true;
                    resp.shed.push_back("pattern2");
                }
                if (st.decl.cfg.pattern3) {
                    resp.degraded = true;
                    resp.shed.push_back("pattern3");
                }
                resp.result.report.reduction = st.assessor.finalize();
                conn.streams.erase(sit);
                settle(Fate::kDelivered);
                enqueue_frame(conn, encode_response_frame(resp, sid));
                return conns.count(id) != 0;
            }
            case FrameType::kStreamAbort: {
                auto sit = conn.streams.find(sid);
                if (sit == conn.streams.end()) {
                    count_rejected_frame();
                    return true;
                }
                // Fire-and-forget by design: the client already moved on,
                // so no response frame — the request ledger records it as
                // failed (no delivery), mirroring a vanished peer.
                conn.streams.erase(sit);
                settle(Fate::kFailed, 1, /*aborts_streams=*/true);
                return true;
            }
            default:
                return true;  // unreachable: the caller dispatched types 6..9
        }
    }

    /// Settle one open stream with a rejected response (server-detected
    /// stream error, drain, goodbye) and balance the request ledger. The
    /// response is a delivery, so the stream counts as completed.
    void abort_stream_rejected(Conn& conn, std::uint64_t stream_id, const std::string& why) {
        conn.streams.erase(stream_id);
        conn.retired_streams.insert(stream_id);
        settle(Fate::kDelivered, 1, /*aborts_streams=*/true);
        // May flush -> close_conn -> erase `conn`; callers re-resolve.
        enqueue_reject(conn, stream_id, why);
    }

    /// Reject-settle every open stream of one connection (id-based: each
    /// settle may flush and disconnect a slow client mid-loop).
    void settle_streams_rejected(std::uint64_t conn_id, const std::string& why) {
        for (;;) {
            auto it = conns.find(conn_id);
            if (it == conns.end() || it->second.streams.empty()) return;
            abort_stream_rejected(it->second, it->second.streams.begin()->first, why);
        }
    }

    /// The service's completion callback (any worker thread, or the loop
    /// itself for a submit-time reject). Only the push that makes the
    /// vector non-empty writes the pipe: one wake-up per settle burst.
    void on_complete(Completion c) {
        bool first = false;
        {
            std::lock_guard lk(completed_mu);
            first = completed.empty();
            completed.push_back(std::move(c));
        }
        if (first) {
            const char b = 1;
            [[maybe_unused]] const ssize_t n = ::write(wake.w, &b, 1);
        }
    }

    std::size_t take_ticket(Ticket t) {
        if (free_tickets.empty()) {
            tickets.push_back(t);
            return tickets.size() - 1;
        }
        const std::size_t slot = free_tickets.back();
        free_tickets.pop_back();
        tickets[slot] = t;
        return slot;
    }

    void settle_completions() {
        {
            std::lock_guard lk(completed_mu);
            settling.swap(completed);
        }
        if (settling.empty()) return;
        // Queue every response first, then flush each touched connection
        // once — a settle burst becomes one send() per peer instead of one
        // per response. Responses go out in completion order.
        std::vector<std::uint64_t> touched;
        std::uint64_t delivered = 0;
        for (Completion& c : settling) {
            const Ticket t = tickets[c.ticket];
            free_tickets.push_back(c.ticket);
            auto it = conns.find(t.conn_id);
            if (it == conns.end()) continue;  // peer vanished; response dropped
            ++delivered;
            if (it->second.inflight > 0) --it->second.inflight;
            queue_frame(it->second, encode_response_frame(c.resp, t.request_id));
            if (std::find(touched.begin(), touched.end(), t.conn_id) == touched.end()) {
                touched.push_back(t.conn_id);
            }
        }
        settle(Fate::kDelivered, delivered);
        settle(Fate::kFailed, settling.size() - delivered);
        settling.clear();
        for (std::uint64_t id : touched) {
            auto it = conns.find(id);
            if (it != conns.end()) flush(it->second);
        }
    }

    // --- Request ledger --------------------------------------------------
    //
    // NetTelemetry's requests_* counters are written only by this pair:
    // every decoded request and every opened stream enters through
    // admit() and leaves through exactly one settle() — delivered when its
    // response frame is queued to a live peer, failed when there is no
    // peer left to deliver to (or the client aborted the stream).

    enum class Fate { kDelivered, kFailed };

    void admit(bool stream) {
        std::lock_guard lk(tele_mu);
        ++tele.requests_accepted;
        ++tele.requests_in_flight;
        if (stream) ++tele.streams_opened;
    }

    /// Settle `n` requests; `aborts_streams` marks them as streams that
    /// ended without a StreamEnd.
    void settle(Fate fate, std::uint64_t n = 1, bool aborts_streams = false) {
        if (n == 0) return;
        std::lock_guard lk(tele_mu);
        (fate == Fate::kDelivered ? tele.requests_completed : tele.requests_failed) += n;
        tele.requests_in_flight -= n;
        if (aborts_streams) tele.streams_aborted += n;
    }

    void enforce_timers() {
        const auto now = Clock::now();
        std::vector<std::uint64_t> expired;
        for (auto& [id, conn] : conns) {
            if (!conn.handshaken && cfg.handshake_timeout_s > 0 &&
                seconds_between(conn.opened, now) > cfg.handshake_timeout_s) {
                expired.push_back(id);
            } else if (conn.handshaken && cfg.idle_timeout_s > 0 && conn.inflight == 0 &&
                       seconds_between(conn.last_activity, now) > cfg.idle_timeout_s) {
                // Deliberately fires with open-but-silent streams too: a
                // stalled stream holds assessor memory, and close_conn
                // settles its ledger entries as failed.
                expired.push_back(id);
            }
        }
        for (std::uint64_t id : expired) close_conn(id);
    }

    void reap_goodbyes() {
        std::vector<std::uint64_t> done;
        for (auto& [id, conn] : conns) {
            if (conn.goodbye && conn.inflight == 0 && conn.streams.empty() &&
                conn.sock.queued_bytes() == 0) {
                done.push_back(id);
            }
        }
        for (std::uint64_t id : done) close_conn(id);
    }

    /// Count one bad frame and answer it with a rejected response.
    /// Returns false when the connection was closed.
    bool reject_frame(Conn& conn, std::uint64_t request_id, std::string why) {
        const std::uint64_t id = conn.id;
        count_rejected_frame();
        enqueue_reject(conn, request_id, std::move(why));
        return conns.count(id) != 0;
    }

    /// Answer one request or stream with a rejected response frame.
    void enqueue_reject(Conn& conn, std::uint64_t request_id, std::string why) {
        serve::AssessResponse resp;
        resp.rejected = true;
        resp.error = std::move(why);
        enqueue_frame(conn, encode_response_frame(resp, request_id));
    }

    /// Queue without flushing (batched senders flush once afterwards).
    void queue_frame(Conn& conn, std::vector<std::uint8_t> frame) {
        conn.sock.queue(std::move(frame));
        std::lock_guard lk(tele_mu);
        ++tele.frames_tx;
    }

    void enqueue_frame(Conn& conn, std::vector<std::uint8_t> frame) {
        queue_frame(conn, std::move(frame));
        flush(conn);
    }

    void flush(Conn& conn) {
        const FrameSocket::Io io = conn.sock.flush();
        if (io.bytes > 0) {
            conn.last_activity = Clock::now();
            std::lock_guard lk(tele_mu);
            tele.bytes_tx += io.bytes;
        }
        // Slow-client disconnect: the peer is not draining its responses
        // and the bounded write queue is exhausted.
        if (io.error != 0 || conn.sock.queued_bytes() > cfg.max_write_buffer) close_conn(conn.id);
    }

    void close_conn(std::uint64_t id) {
        auto it = conns.find(id);
        if (it == conns.end()) return;
        const std::uint64_t open_streams = it->second.streams.size();
        conns.erase(it);
        // This connection's submitted requests settle later as failed in
        // settle_completions(); open streams die with the socket, so they
        // settle here.
        settle(Fate::kFailed, open_streams, /*aborts_streams=*/true);
        std::lock_guard lk(tele_mu);
        ++tele.connections_closed;
        --tele.connections_active;
    }

    void count_rejected_frame() {
        std::lock_guard lk(tele_mu);
        ++tele.frames_rejected;
    }
};

NetServer::NetServer(NetServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

NetServer::~NetServer() {
    shutdown();
    if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
}

std::uint16_t NetServer::port() const noexcept { return impl_->bound_port; }

void NetServer::run() {
    {
        std::lock_guard lk(impl_->start_mu);
        if (impl_->loop_running.exchange(true)) return;  // already running
    }
    impl_->run();
}

void NetServer::start() {
    std::lock_guard lk(impl_->start_mu);
    if (impl_->loop_running.exchange(true)) return;
    impl_->loop_thread = std::thread([this] { impl_->run(); });
}

void NetServer::shutdown() noexcept {
    impl_->draining.store(true, std::memory_order_release);
    const char b = 'x';
    [[maybe_unused]] const ssize_t n = ::write(impl_->wake.w, &b, 1);
}

serve::NetTelemetry NetServer::telemetry() const {
    serve::NetTelemetry t;
    {
        std::lock_guard lk(impl_->tele_mu);
        t = impl_->tele;
    }
    t.data_plane = zc::data_plane_stats();
    return t;
}

serve::ServiceTelemetry NetServer::service_telemetry() const { return impl_->service.telemetry(); }

}  // namespace cuzc::net
