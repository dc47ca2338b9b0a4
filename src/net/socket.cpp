#include "socket.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace cuzc::net {

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void tune_socket(int fd, std::size_t buffer_bytes) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (buffer_bytes > 0) {
        const int sz = static_cast<int>(std::min<std::size_t>(buffer_bytes, 1ull << 30));
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
    }
}

FrameSocket::FrameSocket(FrameSocket&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      inbound_(std::move(o.inbound_)),
      out_(std::move(o.out_)),
      queued_bytes_(std::exchange(o.queued_bytes_, 0)),
      front_sent_(std::exchange(o.front_sent_, 0)) {}

void FrameSocket::close() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
}

void FrameSocket::queue(std::vector<std::uint8_t> frame) {
    queued_bytes_ += frame.size();
    out_.push_back(std::move(frame));
}

FrameSocket::Io FrameSocket::flush() {
    Io io;
    while (!out_.empty()) {
        // Scatter-gather across queued frames: a burst of frames goes out
        // in one syscall instead of one per frame.
        iovec iov[64];
        int n_iov = 0;
        std::size_t off = front_sent_;
        for (auto it = out_.begin(); it != out_.end() && n_iov < 64; ++it) {
            iov[n_iov].iov_base = it->data() + off;
            iov[n_iov].iov_len = it->size() - off;
            ++n_iov;
            off = 0;
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(n_iov);
        const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            io.error = errno;
            break;
        }
        io.bytes += static_cast<std::size_t>(n);
        queued_bytes_ -= static_cast<std::size_t>(n);
        std::size_t left = static_cast<std::size_t>(n);
        while (left > 0) {
            const std::size_t avail = out_.front().size() - front_sent_;
            if (left >= avail) {
                left -= avail;
                out_.pop_front();
                front_sent_ = 0;
            } else {
                front_sent_ += left;
                left = 0;
            }
        }
    }
    return io;
}

FrameSocket::Io FrameSocket::receive(std::size_t pass_cap, std::size_t read_buffer_cap) {
    Io io;
    for (;;) {
        // recv() straight into the assembler's tail — no bounce buffer.
        const std::span<std::uint8_t> room = inbound_.writable(kRecvChunk);
        const ssize_t n = ::recv(fd_, room.data(), room.size(), 0);
        if (n > 0) {
            inbound_.commit(static_cast<std::size_t>(n));
            io.bytes += static_cast<std::size_t>(n);
            if (io.bytes >= pass_cap || !may_buffer_more(read_buffer_cap)) break;
            continue;
        }
        if (n == 0) {
            io.eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        io.error = errno;
        break;
    }
    return io;
}

bool FrameSocket::may_buffer_more(std::size_t read_buffer_cap) const noexcept {
    const std::size_t buffered = inbound_.buffered();
    if (buffered < read_buffer_cap) return true;
    return buffered < inbound_.pending_frame_bytes();
}

}  // namespace cuzc::net
