#include "tcp_load.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cctype>
#include <cmath>
#include <deque>

#include "checks.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxFailureNotes = 5;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Checks one response against its input and counts it; true if ok.
bool account(LoadResult& r, const Input& input, int status,
             std::string_view body) {
  ++r.responses;
  if (input.expect_primary) ++r.expect_primary;
  std::string why = check_response(input, status, body);
  if (why.empty()) {
    ++r.ok;
    return true;
  }
  ++r.bad;
  if (r.failures.size() < kMaxFailureNotes) r.failures.push_back(std::move(why));
  return false;
}

}  // namespace

void ResponseReader::append(const char* data, std::size_t n) {
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

bool ResponseReader::next(int* status, std::string_view* body) {
  const std::string_view all(buf_);
  const std::size_t head_end = all.find("\r\n\r\n", pos_);
  if (head_end == std::string_view::npos) return false;
  const std::string_view head = all.substr(pos_, head_end - pos_);
  int code = -1;
  if (head.size() >= 12 && head.substr(0, 5) == "HTTP/") {
    const std::size_t sp = head.find(' ');
    if (sp != std::string_view::npos && sp + 4 <= head.size()) {
      code = 0;
      for (std::size_t i = sp + 1; i < sp + 4; ++i) {
        if (head[i] < '0' || head[i] > '9') {
          code = -1;
          break;
        }
        code = code * 10 + (head[i] - '0');
      }
    }
  }
  std::size_t length = 0;
  for (std::size_t line = head.find("\r\n"); line != std::string_view::npos;
       line = head.find("\r\n", line + 2)) {
    const std::string_view rest = head.substr(line + 2);
    constexpr std::string_view kName = "content-length:";
    if (rest.size() < kName.size()) continue;
    bool match = true;
    for (std::size_t i = 0; i < kName.size() && match; ++i) {
      match = static_cast<char>(std::tolower(static_cast<unsigned char>(rest[i]))) == kName[i];
    }
    if (!match) continue;
    for (std::size_t i = kName.size(); i < rest.size() && rest[i] != '\r'; ++i) {
      if (rest[i] >= '0' && rest[i] <= '9') {
        length = length * 10 + static_cast<std::size_t>(rest[i] - '0');
      }
    }
    break;
  }
  if (head_end + 4 + length > all.size()) return false;
  *status = code;
  *body = all.substr(head_end + 4, length);
  pos_ = head_end + 4 + length;
  return true;
}

double ClosedLoopResult::median_rate() const {
  std::vector<double> rates;
  for (const std::size_t w : usable) rates.push_back(window_counts[w] / window_s);
  return quantile(rates, 0.5);
}

double windowed_latency(const OpenLoopResult& r, double q) {
  std::vector<std::vector<double>> slices(r.usable.empty() ? 1 : r.usable.back() + 1);
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    if (r.due_ns[i] < r.start_ns) continue;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(r.due_ns[i] - r.start_ns) * 1e-9 / r.window_s);
    if (w < slices.size()) slices[w].push_back(r.latency_us[i]);
  }
  std::vector<double> per_window;
  for (const std::size_t w : r.usable) {
    if (!slices[w].empty()) per_window.push_back(quantile(slices[w], q));
  }
  return quantile(per_window, 0.5);
}

namespace {

/// One nonblocking client connection of the event-loop generators.
struct Conn {
  struct Pending {
    const char* data;
    std::size_t left;
  };
  struct InFlight {
    std::size_t input;
    std::uint64_t due;   ///< open loop: scheduled send time
    std::uint64_t sent;  ///< when the request was written
    std::uint64_t seq;
  };
  int fd = -1;
  ResponseReader reader;
  std::deque<Pending> out;
  std::deque<InFlight> fifo;
};

/// Connects `n` nonblocking connections; false (all closed) on failure.
bool open_conns(std::uint16_t port, std::vector<Conn>& conns) {
  for (Conn& c : conns) {
    c.fd = connect_loopback(port);
    if (c.fd < 0) {
      for (Conn& d : conns) {
        if (d.fd >= 0) ::close(d.fd);
        d.fd = -1;
      }
      return false;
    }
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

/// Writes what the kernel takes; false on a broken connection.
bool flush(Conn& c) {
  while (!c.out.empty()) {
    Conn::Pending& p = c.out.front();
    const ssize_t w = ::send(c.fd, p.data, p.left, MSG_NOSIGNAL);
    if (w > 0) {
      p.data += w;
      p.left -= static_cast<std::size_t>(w);
      if (p.left == 0) c.out.pop_front();
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (!(w < 0 && errno == EINTR)) {
      return false;
    }
  }
  return true;
}

/// Queues `in` on `c` and writes what the kernel takes.
bool send_request(Conn& c, Input& in, Conn::InFlight f) {
  c.fifo.push_back(f);
  c.out.push_back(Conn::Pending{in.wire.data(), in.wire.size()});
  return flush(c);
}

/// Waits up to `wait_ns` for the connections, flushes writable ones and
/// reads readable ones into their readers. Calls `on_response(conn,
/// inflight, status, body, t_recv)` for each whole response. False on a
/// broken connection.
template <typename F>
bool poll_conns(std::vector<Conn>& conns, std::vector<pollfd>& fds,
                std::vector<char>& buf, std::int64_t wait_ns, F&& on_response) {
  for (std::size_t k = 0; k < conns.size(); ++k) {
    fds[k].fd = conns[k].fd;
    fds[k].events = static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT));
    fds[k].revents = 0;
  }
  timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
              static_cast<long>(wait_ns % 1'000'000'000)};
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return true;
  bool ok = true;
  for (std::size_t k = 0; k < conns.size(); ++k) {
    Conn& c = conns[k];
    if ((fds[k].revents & POLLOUT) != 0 && !flush(c)) ok = false;
    if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (n > 0) {
        c.reader.append(buf.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || !(errno == EAGAIN || errno == EWOULDBLOCK)) ok = false;
      break;
    }
    const std::uint64_t t_recv = now_ns();
    int status = 0;
    std::string_view body;
    while (!c.fifo.empty() && c.reader.next(&status, &body)) {
      const Conn::InFlight f = c.fifo.front();
      c.fifo.pop_front();
      on_response(c, f, status, body, t_recv);
    }
  }
  return ok;
}

/// Sleep to the next due time with nanosecond precision, not the
/// default 50 us timer slack, while a generator runs.
class FineTimerSlack {
 public:
  FineTimerSlack() : old_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  }
  ~FineTimerSlack() { prctl(PR_SET_TIMERSLACK, old_, 0, 0, 0); }
  FineTimerSlack(const FineTimerSlack&) = delete;
  FineTimerSlack& operator=(const FineTimerSlack&) = delete;

 private:
  int old_;
};

}  // namespace

ClosedLoopResult run_closed_loop(std::uint16_t port, std::vector<Input>& inputs,
                                 const ClosedLoopConfig& config) {
  ClosedLoopResult out;
  const FineTimerSlack slack;
  const std::size_t n = config.depths.size();
  const std::size_t per_conn = inputs.size() / n;
  std::vector<Conn> conns(n);
  if (!open_conns(port, conns)) {
    out.failures.push_back("connect failed");
    return out;
  }
  if (config.record_spans) out.spans.reserve(1 << 20);
  out.window_counts.assign(static_cast<std::size_t>(std::max(1, config.windows)), 0);
  out.window_s = config.seconds / static_cast<double>(out.window_counts.size());
  std::vector<std::size_t> cursor(n, 0);  // position within each slice
  std::vector<std::uint64_t> seq(n);
  for (std::size_t c = 0; c < n; ++c) seq[c] = config.seq_base + c;
  const std::uint64_t limit =
      config.max_rounds > 0 ? config.max_rounds * per_conn : ~0ull;
  std::vector<std::uint64_t> sent(n, 0);
  std::uint64_t completed = 0, outstanding = 0, last_round = 0;
  bool broken = false;

  const std::uint64_t start_ns = now_ns();
  const std::uint64_t deadline =
      start_ns + static_cast<std::uint64_t>(config.seconds * 1e9);
  StealWindows steal(start_ns, out.window_s, out.window_counts.size());
  auto stopping = [&] { return config.max_rounds == 0 && now_ns() >= deadline; };
  // Connection c's next batch: up to depth[c] requests of its slice.
  auto send_batch = [&](std::size_t c) {
    for (std::size_t j = 0; j < config.depths[c] && sent[c] < limit; ++j) {
      const std::size_t idx = c + cursor[c] * n;
      if (++cursor[c] == per_conn) cursor[c] = 0;
      Input& in = inputs[idx];
      if (config.record_spans) set_sequence(in, seq[c]);
      if (!send_request(conns[c], in, Conn::InFlight{idx, 0, now_ns(), seq[c]})) {
        broken = true;
      }
      seq[c] += n;
      ++sent[c];
      ++out.sent;
      ++outstanding;
    }
  };
  for (std::size_t c = 0; c < n; ++c) send_batch(c);

  std::vector<char> buf(64 * 1024);
  std::vector<pollfd> fds(n);
  while (!broken && outstanding > 0) {
    if (now_ns() > deadline + 10'000'000'000ull) break;
    const bool ok = poll_conns(conns, fds, buf, 10'000'000,
        [&](Conn& c, const Conn::InFlight& f, int status, std::string_view body,
            std::uint64_t t_recv) {
          --outstanding;
          if (config.record_spans) {
            out.spans.add("client.request", f.seq, -1, f.sent, t_recv);
          }
          if (account(out, inputs[f.input], status, body)) {
            const auto w = static_cast<std::size_t>(
                static_cast<double>(t_recv - start_ns) * 1e-9 / out.window_s);
            out.window_counts[std::min(w, out.window_counts.size() - 1)] += 1;
          }
          if (++completed / inputs.size() != last_round) {
            last_round = completed / inputs.size();
            out.round_s.push_back(static_cast<double>(t_recv) * 1e-9);
          }
          if (c.fifo.empty() && !stopping()) {
            send_batch(static_cast<std::size_t>(&c - conns.data()));
          }
        });
    if (!ok) broken = true;
    steal.poll(now_ns());
  }
  steal.finish();
  out.usable = steal.usable();
  if (broken) out.failures.push_back("connection broke with responses owed");
  out.lost += outstanding;
  // round_s holds round end times; turn them into round durations.
  double prev = static_cast<double>(start_ns) * 1e-9;
  for (double& t : out.round_s) {
    const double end = t;
    t = end - prev;
    prev = end;
  }
  for (Conn& c : conns) ::close(c.fd);
  return out;
}

OpenLoopResult run_open_loop(std::uint16_t port, std::vector<Input>& inputs,
                             const OpenLoopConfig& config) {
  OpenLoopResult out;
  const FineTimerSlack slack;
  std::vector<Conn> conns(config.connections);
  if (!open_conns(port, conns)) {
    out.failures.push_back("connect failed");
    return out;
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(std::llround(config.rate_per_s * config.seconds));
  const double period_ns = 1e9 / config.rate_per_s;
  out.latency_us.reserve(total);
  out.due_ns.reserve(total);
  out.lag_us.reserve(total);
  if (config.record_spans) out.spans.reserve(total);
  std::vector<char> buf(64 * 1024);
  std::vector<pollfd> fds(conns.size());
  std::uint64_t outstanding = 0;
  bool broken = false;

  const std::uint64_t t0 = now_ns() + 1'000'000;
  out.start_ns = t0;
  const std::size_t n_windows = static_cast<std::size_t>(std::max(1, config.windows));
  out.window_s = config.seconds / static_cast<double>(n_windows);
  StealWindows steal(t0, out.window_s, n_windows);
  const std::uint64_t give_up =
      t0 + static_cast<std::uint64_t>(config.seconds * 1e9) + 10'000'000'000ull;
  auto due_of = [&](std::uint64_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
  };
  std::uint64_t i = 0;
  while (!broken && (i < total || outstanding > 0)) {
    std::uint64_t now = now_ns();
    if (now > give_up) break;
    for (; i < total && due_of(i) <= now; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i % inputs.size());
      Input& in = inputs[idx];
      const std::uint64_t seq = config.seq_base + i;
      if (config.record_spans) set_sequence(in, seq);
      now = now_ns();
      out.lag_us.push_back(static_cast<double>(now - due_of(i)) * 1e-3);
      if (!send_request(conns[i % conns.size()], in,
                        Conn::InFlight{idx, due_of(i), now, seq})) {
        broken = true;
      }
      ++out.sent;
      ++outstanding;
    }
    const std::int64_t wait_ns =
        i < total ? static_cast<std::int64_t>(due_of(i) > now ? due_of(i) - now : 0)
                  : 100'000'000;
    const bool ok = poll_conns(conns, fds, buf, wait_ns,
        [&](Conn&, const Conn::InFlight& f, int status, std::string_view body,
            std::uint64_t t_recv) {
          --outstanding;
          out.latency_us.push_back(static_cast<double>(t_recv - f.due) * 1e-3);
          out.due_ns.push_back(f.due);
          if (config.record_spans) {
            out.spans.add("client.request", f.seq, -1, f.sent, t_recv);
          }
          account(out, inputs[f.input], status, body);
        });
    if (!ok) broken = true;
    steal.poll(now_ns());
  }
  steal.finish();
  out.usable = steal.usable();
  if (broken) out.failures.push_back("connection broke with responses owed");
  out.lost += outstanding;
  for (Conn& c : conns) ::close(c.fd);
  return out;
}

}  // namespace perfbench
