#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tgsim::serve {

Result<std::string> CallRaw(const std::string& socket_path,
                            const std::string& frame) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path))
    return Status::InvalidArgument(
        "socket path longer than " +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes: " + socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect(" + socket_path +
                           "): " + std::strerror(err));
  }

  std::string out = frame;
  out.push_back('\n');
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::IoError(std::string("send(): ") + std::strerror(err));
    }
    sent += static_cast<size_t>(n);
  }

  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      ::close(fd);
      return Status::IoError("server closed the connection mid-reply");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::IoError(std::string("recv(): ") + std::strerror(err));
    }
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  reply.resize(reply.find('\n'));
  return reply;
}

Result<Json> Call(const std::string& socket_path, const Request& request) {
  Result<std::string> reply = CallRaw(socket_path, RenderRequest(request));
  if (!reply.ok()) return reply.status();
  return ParseReply(reply.value());
}

}  // namespace tgsim::serve
