// serve_mixed: a generator drives the ringsimd daemon over its Unix
// socket, back to back in an untraced run and open loop at fixed rates in
// a traced one. Short submissions from several tenants:
// mostly repeated programs (golden-image clones), some fresh generated
// guests (assembly and boot on the request path), some snapshot images
// (RestoreSnapshot) and a few over-budget submissions that must be
// refused. The daemon worker plus client connections stay within 4 threads.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/guests.h"
#include "perfbench/report.h"
#include "perfbench/workloads.h"
#include "src/base/strings.h"
#include "src/base/xorshift.h"
#include "src/fleet/golden_image.h"
#include "src/fuzz/generator.h"
#include "src/serve/server.h"
#include "src/snapshot/snapshot.h"

extern char** environ;

namespace perfbench {

namespace {

using rings::StrFormat;

// One daemon worker. With two, closed-loop throughput spread about twice
// as far between runs: both fault in and unmap a 32 MiB decode buffer
// per image restore, in one address space. Two connections keep a
// request queued behind the one being served.
constexpr int kDaemonThreads = 1;
constexpr int kConnections = 2;
// The open-loop rate of a traced run's nominal phase, below the 220-520
// completions per wall second the daemon served back to back on the
// benchmark's 4-vCPU host as the host's load varied.
constexpr double kNominalRps = 200;
// The latency limit max_rate_rps is judged against (p99 of due -> done).
constexpr double kP99LimitMs = 100;
// The max-rate search gets a fixed time, the nominal phase a third of the
// run; the search tries rates up to this multiple of the nominal one.
constexpr double kSearchSeconds = 6;
constexpr double kMaxRateFactor = 16;
constexpr uint64_t kOverBudgetCycles = 500;
// The closed loop's sim_cycles and peak_rss_mib are taken over this fixed
// prefix of the stream, so they do not depend on how many requests the
// daemon gets through in the run.
constexpr size_t kPrefixRequests = 2000;
// The measured daemon's socket, and the one set-up samples taken during
// the closed loop start their own daemon on.
constexpr char kSocketName[] = "ringsimd.sock";
constexpr char kSetupSocketName[] = "ringsimd-setup.sock";

// ---- inputs ------------------------------------------------------------

enum class Kind { kRepeated, kFresh, kImage, kOverBudget };

struct Request {
  Kind kind = Kind::kRepeated;
  std::string tenant;
  size_t payload = 0;  // index into the repeated, fresh or image list
  uint64_t max_cycles = 0;
};

struct Payloads {
  std::vector<std::string> repeated;
  std::vector<std::string> fresh;
  std::vector<std::vector<uint8_t>> images;  // cut from repeated programs 0 and 2
};

// Out of every 100 requests: 85 repeated, 6 fresh, 6 images, 3 over
// budget, in a seeded order. The mix is an assumption, not a measured
// trace: mostly repeated programs, some fresh ones, some snapshot images
// and a few tenants that must be refused.
std::vector<Kind> MixPattern(uint64_t seed) {
  std::vector<Kind> pattern;
  pattern.insert(pattern.end(), 85, Kind::kRepeated);
  pattern.insert(pattern.end(), 6, Kind::kFresh);
  pattern.insert(pattern.end(), 6, Kind::kImage);
  pattern.insert(pattern.end(), 3, Kind::kOverBudget);
  rings::Xorshift rng(seed ^ 0x6d6978ull);
  for (size_t i = pattern.size(); i > 1; --i) {
    std::swap(pattern[i - 1], pattern[rng.Below(i)]);
  }
  return pattern;
}

// Six programs whose simulated cost hardly depends on the seed (it
// changes their data; only the pagers' page count varies a little), so
// every seed serves about the same work.
std::vector<std::string> RepeatedPrograms(uint64_t seed) {
  ScriptShape small;
  small.gets = 2;
  small.puts = 2;
  small.encodes = 1;
  small.count_base = 32;
  small.count_step = 8;
  return {
      CompartmentSource(MakeScript(seed, 1000, small, 0)),
      CompartmentSource(MakeScript(seed, 1001, small, 0)),
      CompartmentSource(MakeScript(seed, 1002, small, 0)),
      PagerSource(seed, 1024),
      PagerSource(seed + 1, 512),
      SmcSource(seed, 400),
  };
}

// The request stream, drawn from the seed. A closed loop does not know in
// advance how many requests it will send, so the stream grows on demand;
// request n is the same whenever it is made.
class Stream {
 public:
  explicit Stream(uint64_t seed)
      : seed_(seed), pattern_(MixPattern(seed)), rng_(seed ^ 0x73657276ull) {
    payloads_.repeated = RepeatedPrograms(seed);
  }

  // Request n, making the stream up to it first.
  const Request& At(size_t n) {
    while (requests_.size() <= n) {
      Append();
    }
    return requests_[n];
  }
  const Request& operator[](size_t n) const { return requests_[n]; }
  const Payloads& payloads() const { return payloads_; }
  Payloads& payloads() { return payloads_; }

 private:
  void Append() {
    const size_t n = requests_.size();
    Request request;
    request.kind = pattern_[n % pattern_.size()];
    switch (request.kind) {
      case Kind::kRepeated:
        request.payload = repeated_++ % payloads_.repeated.size();
        request.tenant = StrFormat("t%llu", static_cast<unsigned long long>(rng_.Below(4)));
        break;
      case Kind::kFresh:
        request.payload = payloads_.fresh.size();
        payloads_.fresh.push_back(rings::GenerateGuest((seed_ << 32) + n).source);
        request.tenant = "fresh";
        break;
      case Kind::kImage:
        request.payload = rng_.Below(2);
        request.tenant = "images";
        break;
      case Kind::kOverBudget:
        request.payload = 0;
        request.max_cycles = kOverBudgetCycles;
        request.tenant = "greedy";
        break;
    }
    requests_.push_back(std::move(request));
  }

  uint64_t seed_;
  std::vector<Kind> pattern_;
  rings::Xorshift rng_;
  size_t repeated_ = 0;
  Payloads payloads_;
  std::vector<Request> requests_;
};

// ---- expected outcomes -------------------------------------------------

struct Expected {
  std::string status;
  int exit_code = 0;
  uint64_t cycles = 0;
  uint64_t fingerprint = 0;
  uint64_t instructions = 0;
};

// A standalone Machine::Run of the source, the reference every served
// completion of it must equal.
Expected StandaloneReference(const std::string& source) {
  std::string error;
  std::unique_ptr<rings::Machine> machine = BootGuest(source, 0, &error);
  if (machine == nullptr) {
    return Expected{"failed", 111, 0, 0, 0};
  }
  const bool idle = machine->Run(rings::ServeConfig{}.default_max_cycles).idle;
  const RunSignature signature = SignatureOf(*machine);
  Expected e;
  bool clean = false;
  e.exit_code = ExitStatus(*machine, &clean);
  e.status = !idle ? "budget-exceeded" : clean ? "completed" : "failed";
  e.cycles = signature.cycles;
  e.fingerprint = signature.fingerprint;
  e.instructions = signature.instructions;
  return e;
}

// ---- the daemon --------------------------------------------------------

class Daemon {
 public:
  explicit Daemon(const char* socket) : socket_(socket) {}
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary) {
    unlink(socket_);
    std::vector<std::string> argv_s = {binary, StrFormat("--socket=%s", socket_),
                                       StrFormat("--threads=%d", kDaemonThreads)};
    std::vector<char*> argv;
    for (std::string& s : argv_s) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "ringsimd.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      std::fprintf(stderr, "perfbench: cannot start %s: %s\n", binary.c_str(), std::strerror(rc));
      return false;
    }
    return true;
  }

  // SIGTERM, then wait; the daemon drains and exits once every client
  // connection is closed.
  void Stop() {
    if (pid_ <= 0) {
      return;
    }
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  const char* socket() const { return socket_; }

 private:
  const char* socket_;
  pid_t pid_ = -1;
};

// ---- the socket client -------------------------------------------------

struct Reply {
  bool ok = false;  // protocol-level success
  std::string status;
  int exit_code = 0;
  uint64_t cycles = 0;
  uint64_t fingerprint = 0;
};

class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(const char* path = kSocketName) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path, sizeof(addr.sun_path) - 1);
    return fd_ >= 0 && connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool Ping() {
    if (write(fd_, "ping\n", 5) != 5) {
      return false;
    }
    while (buffer_.find('\n') == std::string::npos) {
      if (!Fill(true)) {
        return false;
      }
    }
    return buffer_ == "pong\n";
  }

  // Sends one submission, pipelined: every command line and the payload
  // go out in one write; the replies are collected by Poll or Wait.
  bool Send(const Request& request, const Payloads& payloads) {
    std::string out = "tenant " + request.tenant + "\n";
    oks_ = 1;
    if (request.max_cycles != 0) {
      out += StrFormat("max-cycles %llu\n", static_cast<unsigned long long>(request.max_cycles));
      ++oks_;
    }
    if (request.kind == Kind::kImage) {
      const std::vector<uint8_t>& image = payloads.images[request.payload];
      out += StrFormat("image %zu\n", image.size());
      out.append(image.begin(), image.end());
    } else {
      const std::string& source = request.kind == Kind::kFresh
                                      ? payloads.fresh[request.payload]
                                      : payloads.repeated[request.payload];
      out += StrFormat("source %zu\n", source.size());
      out += source;
    }
    ++oks_;
    out += "run\n";
    size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = write(fd_, out.data() + done, out.size() - done);
      if (n <= 0) {
        return false;
      }
      done += static_cast<size_t>(n);
    }
    return true;
  }

  // Non-blocking: 1 when the reply to the last Send is complete (in
  // *reply), 0 when it is not yet, -1 on a protocol error or hang-up.
  int Poll(Reply* reply) {
    if (!Fill(false)) {
      return -1;
    }
    return TakeReply(reply);
  }

  int fd() const { return fd_; }

  // Blocking Send + reply, for set-up and the traced passes.
  Reply Submit(const Request& request, const Payloads& payloads) {
    Reply reply;
    if (!Send(request, payloads)) {
      return reply;
    }
    int state = 0;
    while ((state = TakeReply(&reply)) == 0) {
      if (!Fill(true)) {
        return Reply{};
      }
    }
    return state == 1 ? reply : Reply{};
  }

 private:
  // Reads what the socket holds; blocking waits for at least one byte.
  bool Fill(bool blocking) {
    char chunk[4096];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), blocking ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    return n < 0 && !blocking && (errno == EAGAIN || errno == EWOULDBLOCK);
  }

  // Parses `ok` x oks_, `queued <id>`, `done ...`, `tty <n>` + n bytes
  // off the front of the buffer once all of it has arrived.
  int TakeReply(Reply* reply) {
    size_t pos = 0;
    std::vector<std::string> lines;
    while (lines.size() < static_cast<size_t>(oks_) + 3) {
      const size_t newline = buffer_.find('\n', pos);
      if (newline == std::string::npos) {
        return 0;
      }
      lines.push_back(buffer_.substr(pos, newline - pos));
      pos = newline + 1;
    }
    size_t tty = 0;
    if (std::sscanf(lines.back().c_str(), "tty %zu", &tty) != 1) {
      return -1;
    }
    if (buffer_.size() < pos + tty) {
      return 0;
    }
    buffer_.erase(0, pos + tty);
    for (int i = 0; i < oks_; ++i) {
      if (lines[static_cast<size_t>(i)] != "ok") {
        return -1;
      }
    }
    char status[32] = {};
    unsigned long long id = 0, cycles = 0, fingerprint = 0;
    if (lines[static_cast<size_t>(oks_)].rfind("queued ", 0) != 0 ||
        std::sscanf(lines[static_cast<size_t>(oks_) + 1].c_str(),
                    "done %llu status=%31s exit=%d cycles=%llu fingerprint=%llx", &id, status,
                    &reply->exit_code, &cycles, &fingerprint) != 5) {
      return -1;
    }
    reply->ok = true;
    reply->status = status;
    reply->cycles = cycles;
    reply->fingerprint = fingerprint;
    return 1;
  }

  int fd_ = -1;
  int oks_ = 0;
  std::string buffer_;
};

// Retries every 0.1 ms for up to 5 s: the daemon is ready in about a
// millisecond, and a coarser retry would add its step to setup_s.
bool WaitReady(const char* path) {
  const uint64_t deadline = NowNs() + 5'000'000'000ull;
  while (NowNs() < deadline) {
    Connection probe;
    if (probe.Open(path) && probe.Ping()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

// ---- the generators -----------------------------------------------------

struct Sent {
  uint64_t index = 0;  // position in the request stream
  uint64_t due_ns = 0;
  uint64_t dispatched_ns = 0;
  uint64_t done_ns = 0;
  Reply reply;
};

struct Phase {
  double rate = 0;  // the offered rate of an open loop
  std::vector<Sent> sent;
  size_t backlog_mid = 0;
  size_t backlog_end = 0;
  double wall_s = 0;
  double prefix_rss_mib = 0;  // closed loop: daemon VmHWM once the prefix is served
  double daemon_cpu_s = 0;    // closed loop: the daemon's processor time over the loop
};

bool OpenConnections(std::vector<std::unique_ptr<Connection>>* connections) {
  for (int c = 0; c < kConnections; ++c) {
    connections->push_back(std::make_unique<Connection>());
    if (!connections->back()->Open()) {
      return false;
    }
  }
  return true;
}

// Offers `rate` requests per second for `seconds`, each due at a fixed
// time regardless of completions, over kConnections connections; a
// request due while every connection is busy waits in the client queue.
// One thread drives everything and polls without sleeping: it owns one
// processor for the phase, so its own wake-ups never add latency (on a
// virtual machine an idle processor is halted, and waking it is slow
// whenever the host is busy).
bool RunOpenLoop(Stream* stream, double rate, double seconds, uint64_t* next_index,
                 Phase* phase) {
  std::vector<std::unique_ptr<Connection>> connections;
  if (!OpenConnections(&connections)) {
    return false;
  }
  const size_t count = static_cast<size_t>(rate * seconds);
  stream->At(*next_index + count);  // made before the clock starts
  phase->rate = rate;
  phase->sent.assign(count, Sent{});
  std::vector<Sent*> busy(kConnections, nullptr);
  std::deque<Sent*> queue;
  const uint64_t start = NowNs() + 1'000'000;
  for (size_t i = 0; i < count; ++i) {
    phase->sent[i].index = (*next_index)++;
    phase->sent[i].due_ns = start + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / rate);
  }
  size_t due = 0;
  size_t done = 0;
  while (done < count) {
    const uint64_t now = NowNs();
    for (; due < count && phase->sent[due].due_ns <= now; ++due) {
      phase->sent[due].dispatched_ns = now;
      queue.push_back(&phase->sent[due]);
      if (due == count / 2) {
        phase->backlog_mid = queue.size();
      }
      if (due == count - 1) {
        phase->backlog_end = queue.size();
      }
    }
    for (int c = 0; c < kConnections; ++c) {
      if (busy[c] == nullptr && !queue.empty()) {
        busy[c] = queue.front();
        queue.pop_front();
        if (!connections[c]->Send(stream->At(busy[c]->index), stream->payloads())) {
          return false;
        }
      }
      if (busy[c] != nullptr) {
        const int state = connections[c]->Poll(&busy[c]->reply);
        if (state < 0) {
          return false;
        }
        if (state == 1) {
          busy[c]->done_ns = NowNs();
          busy[c] = nullptr;
          ++done;
        }
      }
    }
  }
  phase->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return true;
}

// Back to back from the start of the stream: each connection sends its
// next request as soon as its last reply is in, for `seconds` and at least
// until the first kPrefixRequests are served. The daemon's VmHWM is read
// the moment that prefix is complete. Unlike the open loop, the client
// sleeps in poll(2) while both requests are in flight: no due time is
// missed by waking late, and a spinning client took a processor from the
// daemon (throughput was lower and varied twice as much between runs).
// When `setup` has a set-up sample due, the loop drains, stops its clock
// and lets `sample` take it. The daemon's processor time over the loop is
// recorded too: throughput is reported per second of it (see
// RunServeMixed).
bool RunClosedLoop(Stream* stream, double seconds, pid_t daemon, const SetupTimer& setup,
                   const std::function<bool(uint64_t*)>& sample, Phase* phase) {
  std::vector<std::unique_ptr<Connection>> connections;
  if (!OpenConnections(&connections)) {
    return false;
  }
  std::vector<int64_t> busy(kConnections, -1);  // index of the request in flight
  size_t in_flight = 0;
  size_t prefix_done = 0;
  uint64_t paused_ns = 0;
  const double cpu_start = CpuSeconds(daemon);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (;;) {
    const uint64_t now = NowNs();
    const bool pausing = setup.Due();
    const bool issuing =
        !pausing && (now < deadline + paused_ns || phase->sent.size() < kPrefixRequests);
    if (pausing && in_flight == 0) {
      if (!sample(&paused_ns)) {
        return false;
      }
      continue;
    }
    if (!issuing && in_flight == 0) {
      break;
    }
    if (in_flight == kConnections) {
      pollfd fds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        fds[c] = {connections[c]->fd(), POLLIN, 0};
      }
      poll(fds, kConnections, 100);
    }
    for (int c = 0; c < kConnections; ++c) {
      if (busy[c] < 0 && issuing) {
        busy[c] = static_cast<int64_t>(phase->sent.size());
        Sent sent;
        sent.index = phase->sent.size();
        sent.due_ns = now;
        sent.dispatched_ns = now;
        phase->sent.push_back(sent);
        ++in_flight;
        if (!connections[c]->Send(stream->At(sent.index), stream->payloads())) {
          return false;
        }
      }
      if (busy[c] >= 0) {
        Sent& sent = phase->sent[static_cast<size_t>(busy[c])];
        const int state = connections[c]->Poll(&sent.reply);
        if (state < 0) {
          return false;
        }
        if (state == 1) {
          sent.done_ns = NowNs();
          busy[c] = -1;
          --in_flight;
          if (sent.index < kPrefixRequests && ++prefix_done == kPrefixRequests) {
            phase->prefix_rss_mib = PeakRssMib(daemon);
          }
        }
      }
    }
  }
  phase->wall_s = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  phase->daemon_cpu_s = CpuSeconds(daemon) - cpu_start;
  if (phase->daemon_cpu_s <= 0) {
    std::fprintf(stderr, "perfbench: cannot read the daemon's processor time\n");
    return false;
  }
  return true;
}

// ---- setup -------------------------------------------------------------

struct Prepared {
  explicit Prepared(uint64_t seed) : stream(seed) {}
  Stream stream;
  std::vector<Expected> repeated_expected;
  std::vector<Expected> image_expected;
};

// Starts the daemon, computes the standalone references of the repeated
// programs, cuts the snapshot images, and warms the daemon's golden
// images for the repeated programs.
bool Setup(const std::string& ringsimd, Daemon* daemon, Prepared* prepared) {
  if (!daemon->Start(ringsimd) || !WaitReady(daemon->socket())) {
    return false;
  }
  Payloads& payloads = prepared->stream.payloads();
  prepared->repeated_expected.clear();
  for (const std::string& source : payloads.repeated) {
    prepared->repeated_expected.push_back(StandaloneReference(source));
  }
  // Images of the default machine size, cut halfway through two repeated
  // programs; resumed, they must finish as the uninterrupted run did.
  payloads.images.clear();
  prepared->image_expected.clear();
  for (const size_t program : {size_t{0}, size_t{2}}) {
    const Expected& expected = prepared->repeated_expected[program];
    std::string error;
    std::unique_ptr<rings::Machine> machine = BootGuest(payloads.repeated[program], 0, &error);
    if (machine == nullptr) {
      std::fprintf(stderr, "perfbench: image guest: %s\n", error.c_str());
      return false;
    }
    machine->Run(expected.cycles / 2);
    std::vector<uint8_t> image;
    if (!rings::SaveSnapshot(*machine, &image, &error)) {
      std::fprintf(stderr, "perfbench: snapshot: %s\n", error.c_str());
      return false;
    }
    payloads.images.push_back(std::move(image));
    prepared->image_expected.push_back(expected);
  }
  Connection warm;
  if (!warm.Open(daemon->socket())) {
    return false;
  }
  for (size_t p = 0; p < payloads.repeated.size(); ++p) {
    Request request;
    request.payload = p;
    request.tenant = "warmup";
    if (!warm.Submit(request, payloads).ok) {
      return false;
    }
  }
  return true;
}

Expected ExpectedFor(const Prepared& prepared, const Request& request) {
  switch (request.kind) {
    case Kind::kFresh:
      return StandaloneReference(prepared.stream.payloads().fresh[request.payload]);
    case Kind::kImage:
      return prepared.image_expected[request.payload];
    default:
      return prepared.repeated_expected[request.payload];
  }
}

// A completion is correct when it equals its standalone reference; an
// over-budget submission must be refused. Returns the simulated
// instructions the request executed, or -1 when the reply is wrong.
int64_t Check(const Prepared& prepared, const Request& request, const Reply& reply) {
  if (!reply.ok) {
    return -1;
  }
  if (request.kind == Kind::kOverBudget) {
    return reply.status == "budget-exceeded" || reply.status == "rejected" ? 0 : -1;
  }
  const Expected expected = ExpectedFor(prepared, request);
  const bool same = reply.status == expected.status && reply.exit_code == expected.exit_code &&
                    reply.fingerprint == expected.fingerprint && reply.cycles == expected.cycles;
  return same ? static_cast<int64_t>(expected.instructions) : -1;
}

std::vector<double> LatenciesMs(const Phase& phase) {
  std::vector<double> ms;
  for (const Sent& sent : phase.sent) {
    ms.push_back(static_cast<double>(sent.done_ns - sent.due_ns) / 1e6);
  }
  return ms;
}

// p99 (or the highest percentile the sample supports) of due -> done.
double TailMs(const Phase& phase) {
  const std::vector<double> ms = LatenciesMs(phase);
  return Percentile(ms, TailQuantile(ms.size()));
}

bool StepPasses(const Phase& phase) {
  const bool backlog = phase.backlog_end > phase.backlog_mid + kConnections &&
                       phase.backlog_end > 2 * kConnections;
  return !backlog && TailMs(phase) <= kP99LimitMs;
}

// Offers `rate` for one step; a failing step is run once more, and the
// rate fails only if both do (a host stall fails a single step).
bool RateHolds(Stream* stream, double rate, double seconds, uint64_t* next_index,
               std::vector<Phase>* steps, bool* holds) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    Phase step;
    if (!RunOpenLoop(stream, rate, seconds, next_index, &step)) {
      return false;
    }
    *holds = StepPasses(step);
    steps->push_back(std::move(step));
    if (*holds) {
      break;
    }
  }
  return true;
}

// Doubles the offered rate until it fails, then bisects geometrically
// between the last holding and the first failing rate while time lasts.
// Returns the highest rate that held (the nominal rate if none did).
bool SearchMaxRate(Stream* stream, double seconds, uint64_t* next_index,
                   std::vector<Phase>* steps, double* best) {
  const uint64_t start = NowNs();
  auto left_s = [&] { return seconds - static_cast<double>(NowNs() - start) / 1e9; };
  double lo = kNominalRps;
  double hi = 0;
  for (double rate = 2 * kNominalRps; hi == 0 && rate <= kNominalRps * kMaxRateFactor;
       rate *= 2) {
    bool holds = false;
    if (!RateHolds(stream, rate, 0.5, next_index, steps, &holds)) {
      return false;
    }
    (holds ? lo : hi) = rate;
  }
  while (hi != 0 && left_s() > 1.3) {
    const double rate = std::sqrt(lo * hi);
    bool holds = false;
    if (!RateHolds(stream, rate, 0.6, next_index, steps, &holds)) {
      return false;
    }
    (holds ? lo : hi) = rate;
  }
  *best = lo;
  return true;
}

// ---- the traced attribution passes -------------------------------------

// A fixed slice of the stream (two mix patterns), so counts per pass are
// exact and repeat.
constexpr size_t kTracedRequests = 200;
// Keeps the replay's golden images apart from the in-process Server's.
constexpr uint64_t kReplayIdentity = 0x7265706c6179ull;

// One request replayed on this thread through the layers a daemon worker
// calls: golden Acquire (assemble + boot on a miss) and Spawn, or
// PeekSnapshotMeta + boot + RestoreSnapshot for an image, then Run slices.
struct Replay {
  uint64_t instructions = 0;
  rings::Counters counters{};
  uint64_t frames_privatized = 0;
  uint64_t private_kib = 0;
  uint64_t golden_builds = 0;
  uint64_t golden_hits = 0;
};

// The golden image of a source, assembled and booted on a miss.
std::shared_ptr<const rings::GoldenImage> AcquireGolden(const std::string& source, uint64_t id,
                                                        bool* built) {
  ScopedSpan span("fleet", "Acquire", id);
  return rings::GoldenImageRegistry::Instance().Acquire(
      Fnv1a(source) ^ kReplayIdentity,
      [&source, id] {
        std::string error;
        return BootGuest(source, id, &error);
      },
      built);
}

// As Server::Materialize does it.
std::unique_ptr<rings::Machine> Materialize(const Prepared& prepared, const Request& request,
                                            uint64_t id, Replay* replay) {
  const Payloads& payloads = prepared.stream.payloads();
  if (request.kind == Kind::kImage) {
    const std::vector<uint8_t>& image = payloads.images[request.payload];
    std::string error;
    rings::SnapshotMeta meta;
    {
      ScopedSpan span("snapshot", "PeekSnapshotMeta", id);
      if (!rings::PeekSnapshotMeta(image, &meta, &error)) {
        return nullptr;
      }
    }
    std::unique_ptr<rings::Machine> machine;
    {
      ScopedSpan span("sys", "Boot", id);
      rings::MachineConfig config;
      config.memory_words = meta.memory_words;
      config.cycle_model = meta.cycle_model;
      config.quantum = meta.quantum;
      config.mode = meta.mode;
      machine = std::make_unique<rings::Machine>(config);
    }
    ScopedSpan span("snapshot", "RestoreSnapshot", id);
    return rings::RestoreSnapshot(image, machine.get(), &error) ? std::move(machine) : nullptr;
  }
  const std::string& source = request.kind == Kind::kFresh ? payloads.fresh[request.payload]
                                                           : payloads.repeated[request.payload];
  bool built = false;
  const std::shared_ptr<const rings::GoldenImage> golden = AcquireGolden(source, id, &built);
  (built ? replay->golden_builds : replay->golden_hits) += 1;
  if (golden == nullptr) {
    return nullptr;
  }
  ScopedSpan span("fleet", "Spawn", id);
  return golden->Spawn();
}

bool ReplayPass(const Prepared& prepared, Replay* replay) {
  const rings::ServeConfig serve;
  for (uint64_t id = 0; id < kTracedRequests; ++id) {
    const Request& request = prepared.stream[id];
    ScopedSpan root("bench", "ReplayRequest", id);
    std::unique_ptr<rings::Machine> machine = Materialize(prepared, request, id, replay);
    if (machine == nullptr) {
      return false;
    }
    const uint64_t budget = request.max_cycles != 0 ? request.max_cycles : serve.default_max_cycles;
    uint64_t consumed = 0;
    for (bool first = true;; first = false) {
      rings::RunResult run;
      {
        ScopedSpan span("cpu", first ? "Run.first" : "Run", id);
        run = machine->Run(std::min(serve.slice_cycles, budget - consumed));
      }
      consumed += run.cycles;
      replay->instructions += run.instructions;
      if (run.idle || consumed >= budget) {
        break;
      }
    }
    replay->counters.Accumulate(machine->cpu().counters());
    replay->frames_privatized += machine->memory().frames_privatized();
    replay->private_kib += machine->memory().frame_stats().private_bytes() / 1024;
  }
  return true;
}

// Mean wall time per request, in microseconds, of `submit` over the
// traced requests, one at a time.
template <typename Submit>
double MeanTurnaroundUs(Submit submit) {
  const uint64_t t0 = NowNs();
  for (uint64_t id = 0; id < kTracedRequests; ++id) {
    if (!submit(id)) {
      return -1;
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e3 / static_cast<double>(kTracedRequests);
}

// Traced run: the socket round trip and the in-process Server turnaround
// of the traced requests, one at a time, then the layer replay of the same
// requests. Only the replay's spans make up the per-layer self times; the
// first two passes give the protocol and serving overheads by difference.
bool TraceLayers(const Prepared& prepared, double seconds, LayerInputs* in) {
  const Payloads& payloads = prepared.stream.payloads();
  Connection connection;
  if (!connection.Open()) {
    return false;
  }
  std::vector<Reply> replies;
  GlobalTracer().Enable(true);
  const double socket_us = MeanTurnaroundUs([&](uint64_t id) {
    ScopedSpan span("ringsimd", "Roundtrip", id);
    replies.push_back(connection.Submit(prepared.stream[id], payloads));
    return replies.back().ok;
  });
  GlobalTracer().Enable(false);
  for (uint64_t id = 0; id < replies.size(); ++id) {
    if (Check(prepared, prepared.stream[id], replies[id]) < 0) {
      return false;
    }
  }
  // In process: Server::Submit -> Wait, the daemon's own configuration.
  // The server pins every golden image while it lives, so it is gone
  // before the replay starts.
  double inproc_us = 0;
  {
    rings::ServeConfig config;
    config.threads = kDaemonThreads;
    rings::Server server(config);
    GlobalTracer().Enable(true);
    inproc_us = MeanTurnaroundUs([&](uint64_t id) {
      const Request& request = prepared.stream[id];
      rings::Submission submission;
      submission.tenant = request.tenant;
      submission.max_cycles = request.max_cycles;
      if (request.kind == Kind::kImage) {
        submission.image = payloads.images[request.payload];
      } else {
        submission.source = request.kind == Kind::kFresh ? payloads.fresh[request.payload]
                                                         : payloads.repeated[request.payload];
      }
      ScopedSpan span("serve", "SubmitWait", id);
      server.Wait(server.Submit(std::move(submission)));
      return true;
    });
    GlobalTracer().Enable(false);
  }
  if (socket_us < 0) {
    return false;
  }
  // Layer replay, alternating untraced and traced passes until the time
  // is spent; their difference is the tracing overhead. The repeated
  // programs' golden images stay live across passes, as the daemon pins
  // them; a fresh program's image dies with its request.
  std::vector<std::shared_ptr<const rings::GoldenImage>> pinned;
  for (const std::string& source : payloads.repeated) {
    bool built = false;
    pinned.push_back(AcquireGolden(source, 0, &built));
  }
  double pass_ns[2] = {0, 0};
  uint64_t passes[2] = {0, 0};
  Replay traced;
  in->traced_from_ns = NowNs();
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t n = 0; NowNs() < deadline || n < 2; ++n) {
    const bool on = n % 2 == 1;
    Replay replay;
    GlobalTracer().Enable(on);
    const uint64_t t0 = NowNs();
    const bool ok = ReplayPass(prepared, &replay);
    pass_ns[on] += static_cast<double>(NowNs() - t0);
    ++passes[on];
    GlobalTracer().Enable(false);
    if (!ok) {
      return false;
    }
    if (on) {
      traced = replay;
      in->traced_instructions += replay.instructions;
    }
  }
  in->traced_to_ns = NowNs();
  const double replay_us = GlobalTracer().MeanUs("ReplayRequest");
  size_t images = 0;
  double image_kib = 0;
  for (uint64_t id = 0; id < kTracedRequests; ++id) {
    const Request& request = prepared.stream[id];
    if (request.kind == Kind::kImage) {
      image_kib += static_cast<double>(payloads.images[request.payload].size()) / 1024;
      ++images;
    }
  }
  in->pass_counters = traced.counters;
  in->values["fleet.golden_builds"] = static_cast<double>(traced.golden_builds);
  in->values["fleet.golden_hits"] = static_cast<double>(traced.golden_hits);
  in->values["mem.frames_privatized"] = static_cast<double>(traced.frames_privatized);
  in->values["mem.private_kib"] = static_cast<double>(traced.private_kib);
  in->values["snapshot.image_kib"] = images == 0 ? 0 : image_kib / static_cast<double>(images);
  in->values["serve.inproc_turnaround_us"] = inproc_us;
  in->values["serve.queue_us"] = std::max(0.0, inproc_us - replay_us);
  in->values["ringsimd.protocol_us"] = std::max(0.0, socket_us - inproc_us);
  in->values["bench.trace_overhead_frac"] = (pass_ns[1] / static_cast<double>(passes[1])) /
                                                 (pass_ns[0] / static_cast<double>(passes[0])) -
                                             1;
  return true;
}

}  // namespace

int RunServeMixed(const Args& args) {
  char binary[4096];
  if (args.ringsimd.empty() || realpath(args.ringsimd.c_str(), binary) == nullptr ||
      chdir(args.workdir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: serve_mixed needs --ringsimd and a --workdir\n");
    return 2;
  }
  // Inputs are made before set-up, as far ahead as a run is likely to
  // reach; a faster daemon makes the rest on demand.
  Prepared prepared(args.seed);
  prepared.stream.At(kPrefixRequests + static_cast<size_t>(1500 * args.seconds));
  Daemon daemon(kSocketName);
  SetupTimer setup;
  if (!setup.Repeat([&] { return Setup(binary, &daemon, &prepared); },
                    [&] { daemon.Stop(); })) {
    std::fprintf(stderr, "perfbench: serve_mixed setup failed\n");
    return kReferenceCheckFailed;
  }

  // An untraced run serves the stream back to back for the whole run. A
  // traced run offers the nominal rate for a third of it, searches for the
  // highest rate meeting the p99 limit on a restarted daemon, then runs
  // the layer passes.
  Phase main_phase;
  std::vector<Phase> steps;
  double best_rate = 0;
  LayerInputs in;
  if (!args.trace) {
    // Set-up samples during the loop start a daemon of their own (the
    // measured one keeps its state); they rebuild the same references
    // and images.
    Daemon sample_daemon(kSetupSocketName);
    const auto sample = [&](uint64_t* paused_ns) {
      return setup.Interleave([&] { return Setup(binary, &sample_daemon, &prepared); },
                              [&] { sample_daemon.Stop(); }, paused_ns);
    };
    if (!RunClosedLoop(&prepared.stream, args.seconds, daemon.pid(), setup, sample,
                       &main_phase)) {
      return kReferenceCheckFailed;
    }
  } else {
    uint64_t next_index = 0;
    if (!RunOpenLoop(&prepared.stream, kNominalRps, args.seconds / 3, &next_index, &main_phase)) {
      return kReferenceCheckFailed;
    }
    daemon.Stop();
    if (!Setup(binary, &daemon, &prepared) ||
        !SearchMaxRate(&prepared.stream, kSearchSeconds, &next_index, &steps, &best_rate)) {
      return kReferenceCheckFailed;
    }
    if (!TraceLayers(prepared, args.seconds / 3, &in)) {
      std::fprintf(stderr, "perfbench: traced pass failed\n");
      return kReferenceCheckFailed;
    }
  }
  const double final_rss = PeakRssMib(daemon.pid());
  daemon.Stop();
  unlink(kSocketName);

  // Every completion against its standalone reference.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t instructions = 0;
  uint64_t prefix_cycles = 0;
  std::vector<const Phase*> phases = {&main_phase};
  for (const Phase& step : steps) {
    phases.push_back(&step);
  }
  for (const Phase* phase : phases) {
    for (const Sent& sent : phase->sent) {
      const Request& request = prepared.stream[sent.index];
      ++attempted;
      const int64_t executed = Check(prepared, request, sent.reply);
      if (executed < 0) {
        ++failed;
        std::fprintf(stderr,
                     "perfbench: request %llu: status=%s exit=%d fingerprint=%016llx differs "
                     "from its reference\n",
                     static_cast<unsigned long long>(sent.index), sent.reply.status.c_str(),
                     sent.reply.exit_code, static_cast<unsigned long long>(sent.reply.fingerprint));
      } else if (phase == &main_phase) {
        instructions += static_cast<uint64_t>(executed);
      }
      if (phase == &main_phase && sent.index < kPrefixRequests) {
        prefix_cycles += sent.reply.cycles;
      }
    }
  }
  const double completions = static_cast<double>(main_phase.sent.size());
  const std::string per_cpu_s =
      args.trace ? ""
                 : StrFormat(", %.1f/s of the daemon's %.2f s of processor time",
                             completions / main_phase.daemon_cpu_s, main_phase.daemon_cpu_s);
  std::fprintf(stderr,
               "perfbench: serve_mixed: %llu requests, %llu failed (failed_frac %.6f); %s: %zu "
               "completions in %.2f s (%.1f/s of wall time%s); daemon VmHWM %.1f MiB at the end\n",
               static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
               static_cast<double>(failed) / static_cast<double>(attempted),
               args.trace ? "nominal open loop" : "closed loop", main_phase.sent.size(),
               main_phase.wall_s, completions / main_phase.wall_s, per_cpu_s.c_str(), final_rss);

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Served work per second of the daemon's processor time (user +
    // system, all its threads), not of wall time. The one worker always
    // has a request queued, so the two differ by the time the host did
    // not run the daemon: on the benchmark's 4-vCPU virtual machine that
    // was up to 30% of a run, and the wall-time rate's quartile spread
    // over ten seeds was 0.35 of its median. Waiting inside the daemon
    // does not count here; serve.max_rate_rps and the latencies of a
    // traced run show it.
    metrics = {
        {"setup_s", setup.MedianSeconds(), "s"},
        {"sim_mips", static_cast<double>(instructions) / main_phase.daemon_cpu_s / 1e6, "MIPS"},
        {"sim_cycles", static_cast<double>(prefix_cycles), "cycles"},
        {"machines_per_s", completions / main_phase.daemon_cpu_s, "1/s"},
        {"peak_rss_mib", main_phase.prefix_rss_mib, "MiB"},
    };
  } else {
    std::vector<double> lag_ms;
    for (const Sent& sent : main_phase.sent) {
      lag_ms.push_back(static_cast<double>(sent.dispatched_ns - sent.due_ns) / 1e6);
    }
    const std::vector<double> latency_ms = LatenciesMs(main_phase);
    const double tail = TailQuantile(latency_ms.size());
    std::fprintf(stderr,
                 "perfbench: serve_mixed: nominal %.0f/s: latency.p99_ms is the p%.4g of %zu "
                 "samples; max-rate steps (p99 limit %.0f ms):",
                 kNominalRps, 100 * tail, latency_ms.size(), kP99LimitMs);
    for (const Phase& step : steps) {
      std::fprintf(stderr, " %.0f/s %s (p99 %.2f ms, backlog %zu->%zu)", step.rate,
                   StepPasses(step) ? "pass" : "fail", TailMs(step), step.backlog_mid,
                   step.backlog_end);
    }
    std::fprintf(stderr, "\n");
    in.values["bench.gen_lag_ms"] = Percentile(lag_ms, TailQuantile(lag_ms.size()));
    in.values["latency.p50_ms"] = Percentile(latency_ms, 0.5);
    in.values["latency.p99_ms"] = Percentile(latency_ms, tail);
    in.values["serve.max_rate_rps"] = best_rate;
    metrics = LayerMetrics(in);
    if (!GlobalTracer().Write("trace-serve_mixed.jsonl")) {
      std::fprintf(stderr, "perfbench: could not write the trace file\n");
    }
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench
