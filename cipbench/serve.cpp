// The serve workloads: `cipnet serve --listen` driven over TCP by one
// client thread holding four connections on one poll loop.
//
//  * serve_mixed: closed loop, one request in flight per connection, two
//    server workers, so requests queue. Every request carries a unique
//    place prefix, so every lookup misses and every answer is inserted
//    into the cache and persisted.
//  * serve_hot: open loop at a fixed offered rate over a working set the
//    set-up answered once and reloaded from the cache directory, so every
//    request is a hit; latency counts from each request's scheduled send
//    time.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "algebra/hide.h"
#include "generators.h"
#include "io/astg.h"
#include "io/net_format.h"
#include "reach/coverability.h"
#include "reach/properties.h"
#include "reach/reachability.h"
#include "stg/coding.h"
#include "stg/state_graph.h"
#include "svc/service.h"
#include "synth/synthesize.h"
#include "util/json.h"
#include "workloads.h"

namespace cipbench {

using namespace cipnet;

namespace {

constexpr std::size_t kConnections = 4;
/// Fewer workers than connections, so serve_mixed requests wait in the
/// queue; with the client and the event loop the server then keeps three
/// of four cores busy.
constexpr int kWorkers = 2;
/// serve_hot's offered load. The client thread generates it with a
/// 99th-percentile lateness well under a millisecond on a 4-core machine.
constexpr double kHotRate = 2000;
/// serve_hot's working set: three blocks of the mix, 75 requests.
constexpr std::size_t kHotBlocks = 3;
/// The service's default exploration budget (`serve --max-states`), which
/// the in-process references use too.
const std::size_t kServiceMaxStates = svc::ServiceOptions{}.max_states;

/// A `cipnet serve --listen 127.0.0.1:0` child process. Stops it (SIGTERM,
/// then SIGKILL after 30 s) and reaps it when destroyed.
class ServerProcess {
 public:
  /// Starts the server; its stderr goes to a fresh log file in `work_dir`.
  ServerProcess(const std::string& binary, const std::string& cache_dir,
                const std::string& work_dir) {
    static int started = 0;
    const std::string log_path =
        work_dir + "/server-" + std::to_string(started++) + ".log";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
    if (pid_ == 0) {
      // Dies with the benchmark if the benchmark dies first.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int null = ::open("/dev/null", O_RDWR);
      if (log < 0 || null < 0) ::_exit(127);
      ::dup2(null, 0);
      ::dup2(null, 1);
      ::dup2(log, 2);
      // serve_hot's open loop keeps sending through a server stall; with
      // the default quota of 16 jobs in flight per connection a 32 ms
      // stall would turn into `overloaded` answers.
      const std::string workers = std::to_string(kWorkers);
      ::execl(binary.c_str(), "cipnet", "serve", "--listen", "127.0.0.1:0",
              "--workers", workers.c_str(), "--cache-dir", cache_dir.c_str(),
              "--max-conn-jobs", "100000", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    try {
      wait_for_port(log_path);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double peak_rss() const { return peak_rss_mb(pid_); }

  /// SIGTERM drains the server: it answers what it accepted and exits.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  /// The server prints "listening on HOST:PORT" once it accepts.
  void wait_for_port(const std::string& log_path) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (port_ == 0) {
      std::ifstream in(log_path);
      std::string log, line;
      while (std::getline(in, line)) {
        const auto colon = line.rfind(':');
        if (line.rfind("listening on ", 0) == 0 && colon != std::string::npos) {
          port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
        }
        log += line + "\n";
      }
      if (port_ != 0) break;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("cipnet serve exited at start-up:\n" + log);
      }
      if (Clock::now() > deadline) {
        throw std::runtime_error("cipnet serve did not start:\n" + log);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Non-blocking NDJSON connections multiplexed on one poll loop.
class Client {
 public:
  Client(std::uint16_t port, std::size_t connections) : conns_(connections) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (Conn& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0 ||
          ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string why = std::strerror(errno);
        close_all();
        throw std::runtime_error("connect: " + why);
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
    }
  }
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(std::size_t conn, const std::string& line) {
    Conn& c = conns_[conn];
    c.out.append(line);
    c.out.push_back('\n');
    flush(c);
  }

  /// Waits until `deadline` at the latest for socket activity and hands
  /// every complete response line to `on_line(connection, line)`.
  template <typename F>
  void poll_until(Clock::time_point deadline, F&& on_line) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back({c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
    }
    const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("poll: " + std::string(std::strerror(errno)));
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) flush(c);
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      char buffer[65536];
      const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
      }
      // Acknowledge at once: the server leaves Nagle's algorithm on, so a
      // response written while an earlier one is unacknowledged waits for
      // the client's next segment; with delayed ACKs that is the next
      // request on this connection (README.md, "Known defects").
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      c.in.append(buffer, static_cast<std::size_t>(n));
      std::size_t from = 0;
      for (std::size_t nl; (nl = c.in.find('\n', from)) != std::string::npos; from = nl + 1) {
        on_line(i, std::string_view(c.in).substr(from, nl - from));
      }
      c.in.erase(0, from);
    }
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
  };

  void close_all() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  static void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) return;
        throw std::runtime_error("send: " + std::string(std::strerror(errno)));
      }
      c.out.erase(0, static_cast<std::size_t>(n));
    }
  }

  std::vector<Conn> conns_;
};

/// One request and, once answered, its response.
struct Exchange {
  std::size_t kind = 0;  // index into the mix
  Clock::time_point due;   // scheduled (open loop) or actual send time
  Clock::time_point sent;
  Clock::time_point answered;
  bool done = false;
  bool ok = false;
  bool cached = false;
  double phase_us[4] = {0, 0, 0, 0};  // queue wait, cache lookup, exec, serialize
  std::vector<std::int64_t> answer;
  std::string error;
};

constexpr const char* kPhases[] = {"queue_wait_us", "cache_lookup_us",
                                   "exec_us", "serialize_us"};

std::int64_t number(const json::Value& v, std::string_view key) {
  const json::Value* member = v.find(key);
  if (!member) throw std::runtime_error("response lacks " + std::string(key));
  if (member->type() == json::Value::Type::kBool) return member->as_bool();
  return static_cast<std::int64_t>(member->as_number());
}

/// The parts of a result the references pin down, per op.
std::vector<std::int64_t> answer_of(const std::string& op, const json::Value& result) {
  if (op == "reach") {
    return {number(result, "states"),        number(result, "edges"),
            number(result, "deadlock_states"), number(result, "safe"),
            number(result, "max_tokens"),    number(result, "dead_transitions"),
            number(result, "live")};
  }
  if (op == "cover") {
    const json::Value* bounds = result.find("bounds");
    if (!bounds) throw std::runtime_error("cover response lacks bounds");
    std::int64_t all_one = 1;
    for (const json::Value& b : bounds->items()) {
      const json::Value* bound = b.find("bound");
      all_one &= bound && !bound->is_null() && bound->as_number() == 1;
    }
    return {number(result, "bounded"), number(result, "tree_nodes"), all_one};
  }
  if (op == "hide") {
    return {number(result, "places"), number(result, "transitions")};
  }
  return {number(result, "synthesizable"), number(result, "literals"),
          number(result, "states")};
}

void record_response(std::string_view line, const std::vector<RequestTemplate>& mix,
                     std::vector<Exchange>& exchanges) {
  const auto now = Clock::now();
  const json::Value doc = json::parse(line);
  const std::size_t id = static_cast<std::size_t>(number(doc, "id"));
  if (id == 0 || id > exchanges.size() || exchanges[id - 1].done) {
    throw std::runtime_error("response to an unknown request id");
  }
  Exchange& e = exchanges[id - 1];
  e.answered = now;
  e.done = true;
  e.ok = doc.find("ok") && doc.find("ok")->as_bool();
  if (const json::Value* timings = doc.find("timings")) {
    for (int p = 0; p < 4; ++p) e.phase_us[p] = static_cast<double>(number(*timings, kPhases[p]));
  }
  if (!e.ok) {
    const json::Value* error = doc.find("error");
    e.error = error ? error->get_string("code") + ": " + error->get_string("message")
                    : "error response";
    return;
  }
  e.cached = doc.find("cached") && doc.find("cached")->as_bool();
  const json::Value* result = doc.find("result");
  if (!result) throw std::runtime_error("ok response lacks a result");
  e.answer = answer_of(mix[e.kind].op, *result);
}

/// A request line from its body (the line without its leading id member).
std::string with_id(const std::string& body, std::size_t id) {
  return "{\"id\":" + std::to_string(id) + body;
}

/// Sends `line_of(k)` for k = 0, 1, ... with at most one request in flight
/// per connection until `seconds` have passed, then waits for the rest.
void closed_loop(Client& client, const std::vector<RequestTemplate>& mix,
                 const std::function<std::string(std::size_t k)>& line_of,
                 const std::vector<std::size_t>& kinds, double seconds,
                 std::vector<Exchange>& exchanges) {
  const auto start = Clock::now();
  const auto stop_sending = start + std::chrono::duration<double>(seconds);
  std::size_t in_flight = 0;
  auto issue = [&](std::size_t conn) {
    const std::size_t k = exchanges.size();
    if (k >= kinds.size() || Clock::now() >= stop_sending) return;
    Exchange e;
    e.kind = kinds[k];
    exchanges.push_back(std::move(e));
    const std::string line = line_of(k);
    exchanges[k].due = exchanges[k].sent = Clock::now();
    client.send(conn, line);
    ++in_flight;
  };
  for (std::size_t c = 0; c < kConnections; ++c) issue(c);
  const auto give_up = stop_sending + std::chrono::seconds(60);
  while (in_flight > 0) {
    if (Clock::now() > give_up) throw std::runtime_error("responses timed out");
    client.poll_until(Clock::now() + std::chrono::milliseconds(100),
                      [&](std::size_t conn, std::string_view line) {
                        record_response(line, mix, exchanges);
                        --in_flight;
                        issue(conn);
                      });
  }
}

/// Sends request k at start + k / rate on connection k % connections,
/// whatever is still in flight, until `seconds` have passed; then waits
/// for the rest. Returns each request's lateness against its schedule.
std::vector<double> open_loop(Client& client, const std::vector<RequestTemplate>& mix,
                              const std::vector<std::string>& bodies,
                              const std::vector<std::size_t>& kinds, double seconds,
                              std::vector<Exchange>& exchanges) {
  std::vector<double> late_us;
  // Wake ppoll() at the scheduled time, not up to the default 50 us later.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const std::size_t total = static_cast<std::size_t>(seconds * kHotRate);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(k / kHotRate));
  };
  std::size_t answered = 0;
  auto on_line = [&](std::size_t, std::string_view line) {
    record_response(line, mix, exchanges);
    ++answered;
  };
  const auto give_up = due(total) + std::chrono::seconds(60);
  while (answered < total) {
    if (Clock::now() > give_up) throw std::runtime_error("responses timed out");
    for (auto now = Clock::now(); exchanges.size() < total && due(exchanges.size()) <= now;
         now = Clock::now()) {
      const std::size_t k = exchanges.size();
      Exchange e;
      e.kind = kinds[k % kinds.size()];
      e.due = due(k);
      exchanges.push_back(std::move(e));
      client.send(k % kConnections, with_id(bodies[k % bodies.size()], k + 1));
      exchanges[k].sent = Clock::now();
      late_us.push_back(1e6 * seconds_between(exchanges[k].due, exchanges[k].sent));
    }
    const auto next = exchanges.size() < total ? due(exchanges.size())
                                               : Clock::now() + std::chrono::milliseconds(100);
    client.poll_until(next, on_line);
  }
  return late_us;
}

/// What the service must answer for each request kind, computed in
/// process with the library calls behind each op; closed forms where they
/// exist (the pipelines are safe, live and deadlock-free, an n-input
/// C-element has 2^(n+1) states and 3n literals).
std::vector<std::int64_t> reference_answer(const RequestTemplate& t, Outcome& out) {
  const std::string text = json::parse(stamp_request(t, 1, "ref_"))
                               .get_string(t.op == "synth" ? "stg" : "net");
  const std::string what = t.op + "/" + std::to_string(t.size);
  if (t.op == "synth") {
    const Stg stg = read_astg(text);
    StateGraphOptions options;
    options.max_states = kServiceMaxStates;
    const auto initial = infer_initial_encoding(stg, options);
    if (!initial) throw std::runtime_error(what + ": no consistent initial encoding");
    const StateGraph sg = build_state_graph(stg, *initial, options);
    const std::vector<std::string> outputs = stg.signal_names(SignalKind::kOutput);
    const std::size_t literals = synthesize(sg, outputs).total_literals();
    out.expect(!check_coding(sg, outputs).has_csc_violation() &&
                   literals == 3 * t.size &&
                   sg.state_count() == std::size_t{2} << t.size,
               what + ": reference disagrees with the closed form");
    return {1, static_cast<std::int64_t>(literals),
            static_cast<std::int64_t>(sg.state_count())};
  }
  const PetriNet net = read_net(text);
  if (t.op == "reach") {
    ReachOptions options;
    options.max_states = kServiceMaxStates;
    const ReachabilityGraph rg = explore(net, options);
    const std::vector<std::int64_t> answer = {
        static_cast<std::int64_t>(rg.state_count()),
        static_cast<std::int64_t>(rg.edge_count()),
        static_cast<std::int64_t>(deadlock_states(rg).size()),
        is_safe(rg),
        static_cast<std::int64_t>(max_tokens_in_any_place(rg)),
        static_cast<std::int64_t>(dead_transitions(net, rg).size()),
        is_live(net, rg)};
    out.expect(answer[2] == 0 && answer[3] == 1 && answer[4] == 1 &&
                   answer[5] == 0 && answer[6] == 1,
               what + ": pipeline not safe, live and deadlock-free");
    return answer;
  }
  if (t.op == "cover") {
    CoverabilityOptions options;
    options.max_nodes = kServiceMaxStates;
    const CoverabilityResult result = coverability(net, options);
    bool all_one = true;
    for (const auto& bound : result.bounds) all_one &= bound && *bound == 1;
    out.expect(result.bounded() && all_one, what + ": pipeline not 1-bounded");
    return {result.bounded(), static_cast<std::int64_t>(result.tree_nodes), all_one};
  }
  HideOptions options;
  options.epsilon_fallback = true;
  options.simplify_places_between_contractions = true;
  const PetriNet hidden = hide_actions(net, t.labels, options);
  return {static_cast<std::int64_t>(hidden.place_count()),
          static_cast<std::int64_t>(hidden.transition_count())};
}

/// Checks every answered request against its kind's reference.
void check_exchanges(const std::vector<RequestTemplate>& mix,
                     const std::vector<Exchange>& exchanges, Outcome& out) {
  std::map<std::size_t, std::vector<std::int64_t>> references;
  for (const Exchange& e : exchanges) {
    ++out.attempted;
    if (!e.done) {
      out.fail("request never answered");
      continue;
    }
    if (!e.ok) {
      out.fail(mix[e.kind].op + " failed: " + e.error);
      continue;
    }
    auto it = references.find(e.kind);
    if (it == references.end()) {
      it = references.emplace(e.kind, reference_answer(mix[e.kind], out)).first;
    }
    out.expect(e.answer == it->second,
               mix[e.kind].op + "/" + std::to_string(mix[e.kind].size) +
                   ": answer differs from the reference");
  }
}

/// The per-layer split of the exchanges, from each response's `timings`
/// and the client's round trip.
void report_layers(const std::vector<RequestTemplate>& mix,
                   const std::vector<Exchange>& exchanges, Outcome& out) {
  std::vector<double> phases[4], overhead;
  std::map<std::string, std::vector<double>> exec_by_op;
  double hits = 0;
  for (const Exchange& e : exchanges) {
    const double rtt_us = 1e6 * seconds_between(e.sent, e.answered);
    double server_us = 0;
    for (int p = 0; p < 4; ++p) {
      phases[p].push_back(e.phase_us[p]);
      server_us += e.phase_us[p];
    }
    overhead.push_back(rtt_us - server_us);
    if (!e.cached) exec_by_op[mix[e.kind].op].push_back(e.phase_us[2]);
    hits += e.cached;
  }
  for (int p = 0; p < 4; ++p) {
    const std::string name = std::string("svc.") + kPhases[p];
    out.metrics.set(name + "_p50", percentile(phases[p], 0.50), "us");
    out.metrics.set(name + "_p99", percentile(phases[p], 0.99), "us");
  }
  out.metrics.set("net.overhead_us_p50", percentile(overhead, 0.50), "us");
  out.metrics.set("net.overhead_us_p99", percentile(overhead, 0.99), "us");
  for (const auto& [op, exec] : exec_by_op) {
    out.metrics.set("svc.exec_us_p50." + op, percentile(exec, 0.50), "us");
  }
  out.metrics.set("svc.cache_hit_ratio", 100.0 * hits / exchanges.size(), "%");
}

/// Requests [begin, end) as a measured window: from the first one's
/// (scheduled) send to the last answer.
Window window_of(const std::vector<Exchange>& exchanges, std::size_t begin,
                 std::size_t end) {
  if (begin >= end) throw std::runtime_error("no request answered in the window");
  Window window;
  Clock::time_point last = exchanges[begin].due;
  for (std::size_t i = begin; i < end; ++i) {
    const Exchange& e = exchanges[i];
    window.latencies_ms.push_back(1e3 * seconds_between(e.due, e.answered));
    last = std::max(last, e.answered);
  }
  window.work = static_cast<double>(end - begin);
  window.seconds = seconds_between(exchanges[begin].due, last);
  return window;
}

/// Request `k` of a run: kind `kinds[k]` with the run's tag and `k` in
/// its place prefix, so no two requests of a run share a cache entry.
std::string request_line(const std::vector<RequestTemplate>& mix,
                         const std::vector<std::size_t>& kinds,
                         const std::string& tag, std::size_t k) {
  return stamp_request(mix[kinds[k]], k + 1, tag + "r" + std::to_string(k) + "_");
}

}  // namespace

Outcome run_serve(const RunConfig& config, bool hot) {
  Outcome out;
  const std::string binary = config.bin_dir + "/cipnet";
  std::vector<RequestTemplate> mix;
  std::vector<std::size_t> kinds;
  std::string tag;
  std::vector<std::string> hot_bodies;
  std::optional<ServerProcess> server;

  // Set-up: generate the requests and start the server, on an empty cache
  // directory (serve_mixed) or on one holding the answered working set,
  // which the server reloads (serve_hot).
  const auto generate = [&] {
    Rng rng(config.seed);
    tag = rng.tag();
    mix = serve_mix();
    // serve_mixed: more whole blocks than the server can answer in time.
    kinds = mix_order(rng, mix.size(),
                      hot ? kHotBlocks * mix.size()
                          : static_cast<std::size_t>(config.seconds * 1000));
    if (!hot) return;
    hot_bodies.clear();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const std::string line = request_line(mix, kinds, tag, k);
      hot_bodies.push_back(line.substr(line.find(',')));
    }
  };
  const std::string hot_cache = config.work_dir + "/cache";
  if (hot) {
    generate();
    ServerProcess cold(binary, hot_cache, config.work_dir);
    Client client(cold.port(), kConnections);
    std::vector<Exchange> fill;
    closed_loop(
        client, mix, [&](std::size_t k) { return with_id(hot_bodies[k], k + 1); },
        kinds, 1e9, fill);
    check_exchanges(mix, fill, out);
  }
  int rep = 0;
  const double setup_s = timed_setup(3, [&](SetupTimer& timer) {
    timer.pause();
    server.reset();  // the previous repetition's
    timer.resume();
    generate();
    server.emplace(binary,
                   hot ? hot_cache : config.work_dir + "/cache" + std::to_string(rep++),
                   config.work_dir);
  });

  // The measured window; a traced run splits it into an untraced and a
  // traced half and records one span per request in the second.
  Client client(server->port(), kConnections);
  std::vector<Exchange> exchanges;
  std::vector<double> late_us;
  const auto measure = [&](double seconds) {
    if (!hot) {
      closed_loop(
          client, mix, [&](std::size_t k) { return request_line(mix, kinds, tag, k); },
          kinds, seconds, exchanges);
      return;
    }
    std::vector<Exchange> part;
    const std::vector<double> late = open_loop(client, mix, hot_bodies, kinds, seconds, part);
    late_us.insert(late_us.end(), late.begin(), late.end());
    exchanges.insert(exchanges.end(), part.begin(), part.end());
  };

  if (!config.trace) {
    measure(config.seconds);
    report_end_to_end(out, setup_s, window_of(exchanges, 0, exchanges.size()),
                      server->peak_rss());
  } else {
    SpanLog log(true);  // its clock starts here, before any request
    measure(config.seconds / 2);
    const std::size_t half = exchanges.size();
    measure(config.seconds / 2);
    for (std::size_t i = half; i < exchanges.size(); ++i) {
      log.record("serve.request", exchanges[i].sent, exchanges[i].answered, i + 1);
    }
    const Window untraced = window_of(exchanges, 0, half);
    const Window traced = window_of(exchanges, half, exchanges.size());
    // An open loop's rate is fixed by its schedule, so compare latencies.
    report_trace_overhead(out, 1 / percentile(untraced.latencies_ms, 0.5),
                          1 / percentile(traced.latencies_ms, 0.5));
    report_layers(mix, exchanges, out);
    out.metrics.set("gen.achieved_rps",
                    (untraced.work + traced.work) / (untraced.seconds + traced.seconds),
                    "1/s");
    if (hot) out.metrics.set("gen.late_p99_us", percentile(late_us, 0.99), "us");
    log.write_jsonl(config.bin_dir + "/trace-" + config.workload + ".jsonl");
  }
  server->stop();
  check_exchanges(mix, exchanges, out);
  if (hot) {
    std::size_t misses = 0;
    for (const Exchange& e : exchanges) misses += !e.cached;
    out.expect(misses == 0, std::to_string(misses) + " serve_hot requests missed the warm cache");
  }
  return out;
}

}  // namespace cipbench
