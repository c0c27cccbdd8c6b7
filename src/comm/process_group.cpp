#include "comm/process_group.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"

namespace bnsgcn::comm {

namespace {

std::string make_uds_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  if (base.back() == '/') base.pop_back();
  // sun_path is ~108 bytes; leave room for "/r<rank>.sock". A pathological
  // $TMPDIR falls back to /tmp rather than failing bind with ENAMETOOLONG.
  if (base.size() > 80) base = "/tmp";
  std::string tmpl = base + "/bnsgcn-uds-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  BNSGCN_CHECK_MSG(::mkdtemp(buf.data()) != nullptr,
                   "mkdtemp failed for uds sockets");
  return std::string(buf.data());
}

// The listener helpers store the fd in `fd` as soon as the socket exists,
// so a failing bind or listen leaves it where the group's cleanup closes it.
void bind_uds_listener(const std::string& path, int backlog, int& fd) {
  fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  BNSGCN_CHECK_MSG(fd >= 0, std::string("uds socket failed: ") +
                                std::strerror(errno));
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  BNSGCN_CHECK_MSG(path.size() < sizeof(sa.sun_path),
                   "uds path too long: " + path);
  std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
  BNSGCN_CHECK_MSG(
      ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0,
      "bind failed for " + path + ": " + std::strerror(errno));
  BNSGCN_CHECK(::listen(fd, backlog) == 0);
}

std::uint16_t bind_tcp_listener(int backlog, int& fd) {
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BNSGCN_CHECK_MSG(fd >= 0, std::string("tcp socket failed: ") +
                                std::strerror(errno));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = 0; // ephemeral: the kernel picks a free port
  BNSGCN_CHECK_MSG(
      ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0,
      std::string("tcp bind failed: ") + std::strerror(errno));
  BNSGCN_CHECK(::listen(fd, backlog) == 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  BNSGCN_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0);
  return ntohs(bound.sin_port);
}

} // namespace

LocalGroup make_local_group(TransportKind kind, PartId nranks) {
  BNSGCN_CHECK(kind == TransportKind::kUds || kind == TransportKind::kTcp);
  BNSGCN_CHECK(nranks >= 1);
  LocalGroup group;
  group.endpoints.kind = kind;
  group.endpoints.addrs.resize(static_cast<std::size_t>(nranks));
  group.listen_fds.resize(static_cast<std::size_t>(nranks), -1);
  const int backlog = static_cast<int>(nranks) + 1;
  LocalGroupGuard guard(group); // a failed bind midway unwinds the rest
  if (kind == TransportKind::kUds) {
    group.uds_dir = make_uds_dir();
    for (PartId r = 0; r < nranks; ++r) {
      const std::string path =
          group.uds_dir + "/r" + std::to_string(r) + ".sock";
      group.endpoints.addrs[static_cast<std::size_t>(r)] = path;
      bind_uds_listener(path, backlog,
                        group.listen_fds[static_cast<std::size_t>(r)]);
    }
  } else {
    for (PartId r = 0; r < nranks; ++r) {
      const std::uint16_t port = bind_tcp_listener(
          backlog, group.listen_fds[static_cast<std::size_t>(r)]);
      group.endpoints.addrs[static_cast<std::size_t>(r)] =
          "127.0.0.1:" + std::to_string(port);
    }
  }
  guard.release();
  return group;
}

void cleanup_local_group(LocalGroup& group, bool fds_taken) {
  if (!fds_taken) {
    for (int& fd : group.listen_fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  } else {
    for (int& fd : group.listen_fds) fd = -1;
  }
  if (group.endpoints.kind == TransportKind::kUds && !group.uds_dir.empty()) {
    for (const auto& path : group.endpoints.addrs) ::unlink(path.c_str());
    ::rmdir(group.uds_dir.c_str());
    group.uds_dir.clear();
  }
}

} // namespace bnsgcn::comm
