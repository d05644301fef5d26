#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kListenTimeoutMs = 30000;
constexpr int kDrainGraceMs = 20000;

}  // namespace

TempDir::TempDir(const std::string& root, const std::string& prefix) {
  std::filesystem::create_directories(root);
  std::string tmpl = root + "/" + prefix + "-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + root);
  }
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& tmp_root)
    : cache_dir_(tmp_root, "copathd") {
  std::vector<std::string> argv_s = {exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.insert(argv_s.end(),
                {"--port", "0", "--cache-dir", cache_dir_.path()});
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  const std::int64_t t0 = now_ns();
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Child: die with the benchmark, whatever way it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  out_fd_ = pipefd[0];

  std::string buf;
  for (;;) {
    const auto pos = buf.find("listening on ");
    const auto eol = buf.find('\n', pos == std::string::npos ? 0 : pos);
    if (pos != std::string::npos && eol != std::string::npos) {
      const auto colon = buf.rfind(':', eol);
      port_ = static_cast<std::uint16_t>(
          std::atoi(buf.substr(colon + 1, eol - colon - 1).c_str()));
      break;
    }
    const int waited = static_cast<int>((now_ns() - t0) / 1'000'000);
    pollfd p{out_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, std::max(0, kListenTimeoutMs - waited));
    char tmp[256];
    const ssize_t r = rc > 0 ? ::read(out_fd_, tmp, sizeof tmp) : 0;
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      wait_exit(0);
      throw std::runtime_error("copathd did not start listening");
    }
    buf.append(tmp, static_cast<std::size_t>(r));
  }
  listen_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  if (port_ == 0) {
    wait_exit(0);
    throw std::runtime_error("copathd printed no port");
  }
}

int Daemon::wait_exit(int grace_ms) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, grace_ms > 0 ? SIGTERM : SIGKILL);
  int status = 0;
  const std::int64_t t0 = now_ns();
  for (;;) {
    const pid_t w = ::waitpid(pid_, &status, WNOHANG);
    if (w == pid_) break;
    if (w < 0 && errno != EINTR) {
      status = -1;
      break;
    }
    if ((now_ns() - t0) / 1'000'000 > grace_ms) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

bool Daemon::stop() { return wait_exit(kDrainGraceMs) == 0; }

Daemon::~Daemon() { wait_exit(kDrainGraceMs); }

double Daemon::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 overall, i.e. the 12th and 13th after it.
  const auto rp = line.rfind(')');
  if (rp == std::string::npos) return 0;
  std::istringstream rest(line.substr(rp + 2));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
