#include "server_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// Whether the reply line starting at `pos` ends the reply.
bool IsTerminal(const std::string& line) {
  return line.rfind("OK", 0) == 0 || line.rfind("ERR", 0) == 0;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return;
  std::vector<std::string> argv_text = {binary, "--port", "0"};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return;
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    for (std::string& a : argv_text) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  std::string line;
  char c = 0;
  while (::read(stdout_fd_, &c, 1) == 1) {
    if (c == '\n') break;
    line += c;
  }
  if (line.rfind("LISTENING ", 0) == 0) port_ = std::atoi(line.c_str() + 10);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    Wait();
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

int ServerProcess::Wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) {
      pid_ = -1;
      return -1;
    }
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

Connection::Connection(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::Request(const std::string& line, std::string* reply) {
  reply->clear();
  std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  size_t line_start = 0;
  char chunk[65536];
  for (;;) {
    size_t nl;
    while ((nl = buffer_.find('\n', line_start)) != std::string::npos) {
      const std::string reply_line =
          buffer_.substr(line_start, nl - line_start);
      line_start = nl + 1;
      if (IsTerminal(reply_line)) {
        reply->append(buffer_, 0, line_start);
        buffer_.erase(0, line_start);
        return true;
      }
    }
    // Poll without sleeping: the load generator's own wake-up latency
    // stays out of the measured round trip.
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::vector<std::string> ServerArgs() {
  return {"--workers", std::to_string(kServerWorkers), "--regime", "active-domain",
          "--max-line", std::to_string(1 << 22)};
}

std::vector<std::string> LoadLines(const std::string& turtle) {
  constexpr size_t kStatementsPerLine = 2000;
  std::vector<std::string> lines;
  std::istringstream in(turtle);
  std::string statement, chunk;
  size_t n = 0;
  while (std::getline(in, statement)) {
    if (statement.empty()) continue;
    chunk += statement;
    chunk += ' ';
    if (++n == kStatementsPerLine) {
      lines.push_back("LOAD " + chunk);
      chunk.clear();
      n = 0;
    }
  }
  if (!chunk.empty()) lines.push_back("LOAD " + chunk);
  return lines;
}

double SelfPeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
