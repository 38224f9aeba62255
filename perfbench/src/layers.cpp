// Traced-run layer pass: each input goes once through every public call
// on its use case's path, on one thread, with a span around each call.
// The first pass warms buffers and caches; the second is recorded.

#include <cstdio>
#include <memory>

#include "workloads.hpp"
#include "xaon/aon/messages.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/util/arena.hpp"
#include "xaon/xml/parser.hpp"
#include "xaon/xpath/xpath.hpp"
#include "xaon/xsd/loader.hpp"
#include "xaon/xsd/validator.hpp"

namespace perfbench {

namespace {

using xaon::aon::UseCase;

/// The order payload: the first element child of soap:Body.
const xaon::xml::Node* order_payload(const xaon::xml::Node* root) {
  if (root == nullptr || root->local != "Envelope") return root;
  const xaon::xml::Node* body = root->child_element("Body");
  return body == nullptr ? nullptr : body->first_child_element();
}

}  // namespace

void measure_layers(UseCase use_case, const std::vector<Input>& inputs,
                    SpanLog& spans, Layers& layers) {
  const bool xml = use_case != UseCase::kForwardRequest;
  xaon::aon::Pipeline pipeline(use_case);
  xaon::aon::Pipeline::ProcessScratch scratch;
  xaon::http::RequestParser http_parser;
  xaon::xml::DomParser dom_parser;
  xaon::util::Arena arena(64 * 1024);
  xaon::xpath::EvalScratch eval_scratch;
  const xaon::xpath::XPath quantity =
      xaon::xpath::XPath::compile("//quantity/text()");
  std::shared_ptr<const xaon::xsd::Schema> schema;
  std::unique_ptr<xaon::xsd::Validator> validator;
  if (use_case == UseCase::kSchemaValidation) {
    schema = xaon::xsd::load_schema_cached(xaon::aon::order_schema_xsd());
    validator = std::make_unique<xaon::xsd::Validator>(*schema);
  }

  double xml_bytes = 0, xml_ns = 0, nodes = 0, arena_bytes = 0;
  std::uint64_t allocs[2] = {0, 0}, msgs[2] = {0, 0};  // [valid, invalid]
  for (int pass = 0; pass < 2; ++pass) {
    const bool rec = pass == 1;
    SpanLog scratch_log;
    SpanLog& log = rec ? spans : scratch_log;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Input& in = inputs[i];
      const std::uint64_t m0 = now_ns();
      const std::int64_t parent = log.add("layer.message", i, -1, m0, m0);

      http_parser.reset();
      std::uint64_t t0 = now_ns();
      http_parser.feed(in.wire);
      std::uint64_t t1 = now_ns();
      log.add("http.parse", i, parent, t0, t1);

      if (xml) {
        arena.reset();
        t0 = now_ns();
        const xaon::xml::ParseResult parsed = dom_parser.parse(in.body(), arena);
        t1 = now_ns();
        log.add("xml.parse", i, parent, t0, t1);
        if (rec) {
          xml_bytes += static_cast<double>(in.body().size());
          xml_ns += static_cast<double>(t1 - t0);
          nodes += static_cast<double>(parsed.document.node_count());
        }
        const xaon::xml::Node* root = parsed.document.root();
        if (use_case == UseCase::kContentBasedRouting && root != nullptr) {
          t0 = now_ns();
          const std::uint64_t shape = xaon::xml::skeleton_fingerprint(root);
          t1 = now_ns();
          log.add("xml.fingerprint", i, parent, t0, t1);
          (void)shape;
          t0 = now_ns();
          const xaon::xpath::Value v = quantity.evaluate(root, eval_scratch);
          t1 = now_ns();
          log.add("xpath.eval", i, parent, t0, t1);
          (void)v;
        }
        if (validator != nullptr) {
          const xaon::xml::Node* payload = order_payload(root);
          const xaon::xsd::ElementDecl* decl =
              payload == nullptr
                  ? nullptr
                  : schema->find_global_element(payload->ns_uri, payload->local);
          if (decl != nullptr) {
            t0 = now_ns();
            validator->validate_element_reuse(payload, decl);
            t1 = now_ns();
            log.add(in.shape.violation == Violation::kNone ? "xsd.validate.valid"
                                                           : "xsd.validate.invalid",
                    i, parent, t0, t1);
          }
        }
      }

      const std::uint64_t a0 = thread_alloc_count();
      t0 = now_ns();
      pipeline.process_wire(in.wire, scratch);
      t1 = now_ns();
      const std::uint64_t a1 = thread_alloc_count();
      log.add("aon.process_wire", i, parent, t0, t1);
      if (rec) {
        const int k = in.shape.violation == Violation::kNone ? 0 : 1;
        allocs[k] += a1 - a0;
        ++msgs[k];
        arena_bytes += static_cast<double>(scratch.arena.bytes_allocated());
      }
      log.set_end(parent, now_ns());
    }
  }

  const double n = static_cast<double>(inputs.size());
  layers["http.parse_ns"] = spans.median_ns("http.parse");
  layers["aon.process_wire_ns"] = spans.median_ns("aon.process_wire");
  layers["aon.allocs_per_msg"] =
      static_cast<double>(allocs[0] + allocs[1]) / static_cast<double>(msgs[0] + msgs[1]);
  if (use_case == UseCase::kSchemaValidation) {
    layers["aon.allocs_per_msg.valid"] =
        msgs[0] ? static_cast<double>(allocs[0]) / static_cast<double>(msgs[0]) : 0;
    layers["aon.allocs_per_msg.invalid"] =
        msgs[1] ? static_cast<double>(allocs[1]) / static_cast<double>(msgs[1]) : 0;
    layers["xsd.validate_valid_ns"] = spans.median_ns("xsd.validate.valid");
    layers["xsd.validate_invalid_ns"] = spans.median_ns("xsd.validate.invalid");
  }
  layers["util.arena_bytes_per_msg"] = arena_bytes / n;
  if (xml) {
    layers["xml.parse_ns"] = spans.median_ns("xml.parse");
    layers["xml.parse_mb_per_s"] = xml_ns > 0 ? xml_bytes / xml_ns * 1e3 : 0;
    layers["xml.nodes_per_msg"] = nodes / n;
  }
  if (use_case == UseCase::kContentBasedRouting) {
    layers["xml.fingerprint_ns"] = spans.median_ns("xml.fingerprint");
    layers["xpath.eval_ns"] = spans.median_ns("xpath.eval");
  }
}

void dump_spans(const RunArgs& args, const SpanLog& spans) {
  const std::string base = args.out_dir + "/spans-" + args.workload;
  if (!spans.write(base + ".csv", base + ".summary.json")) {
    std::fprintf(stderr, "perfbench: could not write spans under %s\n",
                 args.out_dir.c_str());
  }
}

}  // namespace perfbench
