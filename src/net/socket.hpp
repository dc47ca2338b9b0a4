#pragma once

/// cuzc::net::FrameSocket — the cuzc-wire transport under both NetServer
/// and NetClient. It moves bytes only; each caller keeps its own policy
/// (what a hard error means, read caps, flush cadence, counters).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "wire.hpp"

namespace cuzc::net {

void set_nonblocking(int fd);

/// TCP_NODELAY, plus SO_RCVBUF/SO_SNDBUF of `buffer_bytes` clamped to
/// 1 GiB (the kernel clamps further); 0 keeps the kernel's sizes.
void tune_socket(int fd, std::size_t buffer_bytes);

/// One nonblocking connected socket, the FrameAssembler that recv() fills
/// in place, and the queue of encoded frames that sendmsg() drains.
class FrameSocket {
public:
    static constexpr std::size_t kRecvChunk = 64 * 1024;  ///< bytes per recv()

    /// Takes ownership of `fd`; inbound payloads may reach `max_payload`.
    FrameSocket(int fd, std::size_t max_payload) : fd_(fd), inbound_(max_payload) {}
    FrameSocket(FrameSocket&& o) noexcept;
    FrameSocket& operator=(FrameSocket&&) = delete;
    ~FrameSocket() { close(); }

    [[nodiscard]] int fd() const noexcept { return fd_; }
    [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
    void close() noexcept;

    /// Received bytes not yet taken as frames.
    [[nodiscard]] FrameAssembler& inbound() noexcept { return inbound_; }

    void queue(std::vector<std::uint8_t> frame);
    /// Unsent bytes across the queue; 0 iff the queue is empty.
    [[nodiscard]] std::size_t queued_bytes() const noexcept { return queued_bytes_; }

    struct Io {
        std::size_t bytes = 0;  ///< bytes moved, also when the call failed
        int error = 0;          ///< errno of a hard socket error, else 0
        bool eof = false;       ///< receive(): the peer closed its end
    };

    /// Sends queued frames, up to 64 per sendmsg(), until the queue is
    /// empty, the kernel would block, or a hard error.
    Io flush();

    /// Reads kRecvChunk at a time into inbound() until the kernel would
    /// block, EOF, a hard error, `pass_cap` bytes, or
    /// !may_buffer_more(read_buffer_cap), re-checking both caps after every
    /// recv(). The defaults read until the kernel would block.
    Io receive(std::size_t pass_cap = SIZE_MAX, std::size_t read_buffer_cap = SIZE_MAX);

    /// Whether inbound() may take more bytes under the soft cap
    /// `read_buffer_cap`. An in-limit frame at the stream head may exceed
    /// it, so reads stay open until that frame is whole; otherwise a frame
    /// in (read_buffer_cap, max_payload] could never finish assembling and
    /// the reader would wedge. The header peek runs only at the cap.
    [[nodiscard]] bool may_buffer_more(std::size_t read_buffer_cap) const noexcept;

private:
    int fd_ = -1;
    FrameAssembler inbound_;
    std::deque<std::vector<std::uint8_t>> out_;
    std::size_t queued_bytes_ = 0;
    std::size_t front_sent_ = 0;  ///< sent prefix of out_.front()
};

}  // namespace cuzc::net
