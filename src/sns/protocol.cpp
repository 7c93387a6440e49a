#include "sns/protocol.hpp"

#include "proto/codec.hpp"

namespace ph::sns {

std::string_view to_string(PageKind kind) noexcept {
  switch (kind) {
    case PageKind::home: return "home";
    case PageKind::search: return "search";
    case PageKind::group: return "group";
    case PageKind::join: return "join";
    case PageKind::member_list: return "member_list";
    case PageKind::profile: return "profile";
    case PageKind::compose: return "compose";
    case PageKind::send_message: return "send_message";
    case PageKind::post_comment: return "post_comment";
    case PageKind::inbox: return "inbox";
  }
  return "?";
}

Bytes encode(const PageRequest& request) {
  return proto::encode_exact([&request](auto& w) {
    w.u8(static_cast<std::uint8_t>(request.kind));
    w.str(request.query);
    w.str(request.member);
    w.str(request.text);
    w.u32(request.weight_permille);
  });
}

Result<PageRequest> decode_page_request(BytesView data) {
  proto::Reader r(data);
  PageRequest request;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind < 1 || *kind > static_cast<std::uint8_t>(PageKind::inbox)) {
    return Error{Errc::protocol_error, "unknown page kind"};
  }
  request.kind = static_cast<PageKind>(*kind);
  auto query = r.str();
  if (!query) return query.error();
  request.query = std::move(*query);
  auto member = r.str();
  if (!member) return member.error();
  request.member = std::move(*member);
  auto text = r.str();
  if (!text) return text.error();
  request.text = std::move(*text);
  auto weight = r.u32();
  if (!weight) return weight.error();
  request.weight_permille = *weight;
  return request;
}

Bytes encode(const PageResponse& response) {
  return proto::encode_exact([&response](auto& w) {
    w.u8(static_cast<std::uint8_t>(response.kind));
    w.u8(static_cast<std::uint8_t>(response.status));
    w.str_list(response.names);
    w.bytes(response.body);
  });
}

Result<PageResponse> decode_page_response(BytesView data) {
  proto::Reader r(data);
  PageResponse response;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (*kind < 1 || *kind > static_cast<std::uint8_t>(PageKind::inbox)) {
    return Error{Errc::protocol_error, "unknown page kind"};
  }
  response.kind = static_cast<PageKind>(*kind);
  auto status = r.u8();
  if (!status) return status.error();
  if (*status > static_cast<std::uint8_t>(PageStatus::not_found)) {
    return Error{Errc::protocol_error, "unknown page status"};
  }
  response.status = static_cast<PageStatus>(*status);
  auto names = r.str_list();
  if (!names) return names.error();
  response.names = std::move(*names);
  auto body = r.bytes();
  if (!body) return body.error();
  response.body = std::move(*body);
  return response;
}

}  // namespace ph::sns
