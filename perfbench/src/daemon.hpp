// copathd under supervision: spawned on port 0 with a fresh cache
// directory, its `listening on` line read for the port, drained with
// SIGTERM (SIGKILL after a grace period) on every exit path, its exit code
// checked, and the cache directory removed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A fresh directory `<root>/<prefix>-XXXXXX`, removed with everything in
/// it when the object dies.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class Daemon {
 public:
  /// Spawns `exe` with `args` plus `--port 0 --cache-dir <fresh dir under
  /// tmp_root>` and waits for it to listen. Throws std::runtime_error if it
  /// does not within the timeout.
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& tmp_root);
  /// Kills (SIGTERM, then SIGKILL) and reaps if stop() was not called, and
  /// removes the cache directory.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Graceful drain. Returns true iff the process exited with code 0.
  bool stop();

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Seconds from spawn to the `listening on` line.
  [[nodiscard]] double listen_s() const { return listen_s_; }
  /// utime + stime in seconds (/proc/<pid>/stat).
  [[nodiscard]] double cpu_s() const;
  /// Peak resident set (VmHWM) in MiB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  int wait_exit(int grace_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double listen_s_ = 0;
  TempDir cache_dir_;
};

}  // namespace perfbench
