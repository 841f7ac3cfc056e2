// A triq_server child process and a line-protocol client connection.
#ifndef TRIQ_PERFBENCH_SERVER_CLIENT_H_
#define TRIQ_PERFBENCH_SERVER_CLIENT_H_

#include <sys/types.h>

#include <cstddef>

#include <string>
#include <vector>

namespace perfbench {

/// Starts `triq_server --port 0` with `args` appended, reads the
/// `LISTENING <port>` announcement, and on destruction sends SIGTERM (if
/// still running) and waits for the process to end.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool ok() const { return port_ > 0; }
  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Peak resident set (VmHWM) of the server in MiB; 0 if unreadable.
  double PeakRssMb() const;
  /// Waits for the process to exit (after a SHUTDOWN); returns its exit
  /// status, or -1.
  int Wait();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

/// One blocking TCP connection speaking the server's line protocol.
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// Sends `line` (newline appended) and reads the reply up to and
  /// including its terminal `OK`/`ERR` line. Returns false on an I/O
  /// error; `reply` holds every reply line.
  bool Request(const std::string& line, std::string* reply);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Worker threads of every server the benchmark starts. One: concurrent
/// queries over one published snapshot race in the chase's lazily built
/// indexes (README.md), so requests are served one at a time.
constexpr size_t kServerWorkers = 1;

/// The server flags every run uses: kServerWorkers worker threads, the
/// active-domain regime, and a line limit that fits one LOAD chunk.
std::vector<std::string> ServerArgs();

/// Splits Turtle text (one statement per line) into `LOAD` command lines
/// of a bounded number of statements each.
std::vector<std::string> LoadLines(const std::string& turtle);

/// Peak resident set of this process in MiB.
double SelfPeakRssMb();

}  // namespace perfbench

#endif  // TRIQ_PERFBENCH_SERVER_CLIENT_H_
