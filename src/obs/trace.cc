// Copyright (c) SkyBench-NG contributors.
#include "obs/trace.h"

#include <cstdio>

namespace sky {
namespace obs {

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.0fns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

std::string QueryTrace::Render() const {
  // Children in recording order under each parent; parents always precede
  // children, so depth is computable in one forward pass.
  std::vector<int> depth(spans.size(), 0);
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0 || static_cast<size_t>(p) >= i) {
      roots.push_back(i);
    } else {
      depth[i] = depth[static_cast<size_t>(p)] + 1;
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::string out;
  std::vector<size_t> stack(roots.rbegin(), roots.rend());
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    const TraceSpan& s = spans[i];
    out.append(static_cast<size_t>(depth[i]) * 2, ' ');
    out += s.name;
    out += ' ';
    out += FormatSeconds(s.duration_seconds);
    for (const auto& [k, v] : s.attrs) {
      out += ' ';
      out += k;
      out += '=';
      out += v;
    }
    out += '\n';
    for (auto it = children[i].rbegin(); it != children[i].rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

TraceBuilder::TraceBuilder()
    : epoch_(std::chrono::steady_clock::now()),
      trace_(std::make_shared<QueryTrace>()) {}

double TraceBuilder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int TraceBuilder::AddSpan(std::string_view name, int parent,
                          double start_seconds, double duration_seconds) {
  TraceSpan s;
  s.name = name;
  s.parent = parent;
  s.start_seconds = start_seconds;
  s.duration_seconds = duration_seconds;
  trace_->spans.push_back(std::move(s));
  return static_cast<int>(trace_->spans.size()) - 1;
}

int TraceBuilder::Open(std::string_view name, int parent) {
  return AddSpan(name, parent, Now(), 0.0);
}

void TraceBuilder::Close(int span) {
  TraceSpan& s = trace_->spans[static_cast<size_t>(span)];
  s.duration_seconds = Now() - s.start_seconds;
}

void TraceBuilder::Attr(int span, std::string_view key,
                        std::string_view value) {
  trace_->spans[static_cast<size_t>(span)].attrs.emplace_back(key, value);
}

void TraceBuilder::AttrCount(int span, std::string_view key, uint64_t value) {
  Attr(span, key, std::to_string(value));
}

std::shared_ptr<const QueryTrace> TraceBuilder::Finish() {
  return std::move(trace_);
}

TraceScope::TraceScope(bool enabled, std::string_view name) {
  if (!enabled) return;
  owned_ = std::make_unique<TraceBuilder>();
  tb_ = owned_.get();
  span_ = tb_->Open(name);
  open_ = true;
}

TraceScope::TraceScope(const TraceScope& parent, std::string_view name)
    : tb_(parent.tb_) {
  if (tb_ == nullptr) return;
  span_ = tb_->Open(name, parent.span_);
  open_ = true;
}

TraceScope::TraceScope(const TraceScope& parent, std::string_view name,
                       int64_t index, double start_seconds,
                       double duration_seconds)
    : tb_(parent.tb_) {
  if (tb_ == nullptr) return;
  std::string full(name);
  if (index >= 0) full += "[" + std::to_string(index) + "]";
  span_ = tb_->AddSpan(full, parent.span_, start_seconds, duration_seconds);
}

void TraceScope::Attr(std::string_view key, std::string_view value) {
  if (tb_ != nullptr) tb_->Attr(span_, key, value);
}

void TraceScope::AttrCount(std::string_view key, uint64_t value) {
  if (tb_ != nullptr) tb_->AttrCount(span_, key, value);
}

void TraceScope::Close() {
  if (!open_) return;
  tb_->Close(span_);
  open_ = false;
}

std::shared_ptr<const QueryTrace> TraceScope::Finish() {
  Close();
  return owned_ != nullptr ? owned_->Finish() : nullptr;
}

}  // namespace obs
}  // namespace sky
