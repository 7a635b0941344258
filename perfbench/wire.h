// Client side of the three transports the benchmark speaks: WebSocket
// text frames, HTTP/1.1 with Content-Length bodies, and the line
// protocol's text framing. Written apart from src/http and src/net.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common.h"

namespace pb {

// ------------------------------------------------------------- replies

/// A decoded reply of any transport.
struct Reply {
  bool ok = false;
  int http_status = 0;
  std::string text;  // op reply text, or the error message
  std::string body;  // query JSON / SVG / REST body
};

/// Connection kinds.
enum class Proto { kWs, kHttp, kLine };

/// Pops one complete reply off `in`; false when more bytes are needed.
inline bool PopReply(Proto proto, std::string& in, Reply* r) {
  if (proto == Proto::kWs) {
    if (in.size() < 2) return false;
    const uint8_t b1 = static_cast<uint8_t>(in[1]) & 0x7f;
    size_t hdr = 2;
    uint64_t len = b1;
    if (b1 == 126) {
      if (in.size() < 4) return false;
      len = (static_cast<uint8_t>(in[2]) << 8) | static_cast<uint8_t>(in[3]);
      hdr = 4;
    } else if (b1 == 127) {
      if (in.size() < 10) return false;
      len = 0;
      for (int i = 2; i < 10; ++i) len = (len << 8) | static_cast<uint8_t>(in[i]);
      hdr = 10;
    }
    if (in.size() < hdr + len) return false;
    const uint8_t opcode = static_cast<uint8_t>(in[0]) & 0x0f;
    std::string payload = in.substr(hdr, len);
    in.erase(0, hdr + len);
    if (opcode != 1) {
      r->ok = false;
      r->text = "non-text frame, opcode " + std::to_string(opcode);
      return true;
    }
    r->ok = JsonField(payload, "ok") == "true";
    r->text = r->ok ? JsonField(payload, "text") : JsonField(payload, "error");
    r->body = JsonField(payload, "body");
    return true;
  }
  if (proto == Proto::kHttp) {
    size_t he = in.find("\r\n\r\n");
    if (he == std::string::npos) return false;
    size_t cl = 0;
    std::string head = in.substr(0, he);
    for (auto& c : head) c = static_cast<char>(std::tolower(c));
    size_t p = head.find("content-length:");
    if (p != std::string::npos) cl = std::strtoull(head.c_str() + p + 15, nullptr, 10);
    if (in.size() < he + 4 + cl) return false;
    r->http_status = std::atoi(in.c_str() + 9);
    r->body = in.substr(he + 4, cl);
    r->ok = r->http_status >= 200 && r->http_status < 300;
    r->text = r->ok ? "" : r->body;
    in.erase(0, he + 4 + cl);
    return true;
  }
  size_t nl = in.find('\n');
  if (nl == std::string::npos) return false;
  std::string line = in.substr(0, nl);
  if (line.rfind("OK BODY ", 0) == 0) {
    char* end = nullptr;
    uint64_t n = std::strtoull(line.c_str() + 8, &end, 10);
    if (in.size() < nl + 1 + n + 1) return false;
    r->ok = true;
    r->text = std::string(end + (*end == ' ' ? 1 : 0));
    r->body = in.substr(nl + 1, n);
    in.erase(0, nl + 1 + n + 1);
    return true;
  }
  in.erase(0, nl + 1);
  r->ok = line.rfind("OK", 0) == 0;
  r->text = line.size() > 3 ? line.substr(3) : "";
  return true;
}

inline std::string WsFrame(const std::string& payload, uint32_t mask_seed) {
  std::string f;
  f += static_cast<char>(0x81);
  const size_t n = payload.size();
  if (n < 126) {
    f += static_cast<char>(0x80 | n);
  } else if (n < 65536) {
    f += static_cast<char>(0x80 | 126);
    f += static_cast<char>(n >> 8);
    f += static_cast<char>(n & 0xff);
  } else {
    f += static_cast<char>(0x80 | 127);
    for (int i = 7; i >= 0; --i) f += static_cast<char>((n >> (8 * i)) & 0xff);
  }
  char mask[4];
  for (int i = 0; i < 4; ++i) mask[i] = static_cast<char>(mask_seed >> (8 * i));
  f.append(mask, 4);
  for (size_t i = 0; i < n; ++i) f += static_cast<char>(payload[i] ^ mask[i % 4]);
  return f;
}

inline std::string HttpRequestBytes(const std::string& method, const std::string& path,
                        const std::string& body = "") {
  std::string r = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  r += "Connection: keep-alive\r\n";
  if (!body.empty() || method == "POST") {
    r += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  return r + "\r\n" + body;
}

}  // namespace pb

#endif  // PERFBENCH_WIRE_H_
