/**
 * @file
 * Client side of the sweep-server protocol.
 *
 * A thin blocking wrapper over one loopback TCP connection speaking
 * serve/protocol.h frames. The load generator, the server benchmark
 * and the tests all drive the server through this class so there is
 * exactly one client-side implementation of the wire format.
 *
 * Transport failures (connect refused, peer vanished mid-frame)
 * throw std::runtime_error; structured server errors (400/429/500
 * frames) are returned as data so callers can assert on them.
 */

#ifndef IBS_SERVE_CLIENT_H
#define IBS_SERVE_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace ibs::serve {

/** One connection to a sweep server. */
class Client
{
  public:
    Client() = default;

    /** Connects immediately; throws std::runtime_error on failure. */
    explicit Client(uint16_t port);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to 127.0.0.1:port. Throws on failure. */
    void connect(uint16_t port);

    void close();

    bool connected() const { return fd_ >= 0; }

    int fd() const { return fd_; }

    /** Send one frame; throws std::runtime_error when the peer is
     *  gone. */
    void send(const Json &message);

    /**
     * Receive one frame. Throws on transport failure (truncated
     * stream); returns false on clean EOF. A frame the server could
     * not parse never happens in this direction, so BadJson also
     * throws.
     */
    bool receive(Json &out);

    /** {"type":"ping"} round trip; false if the response is off. */
    bool ping();

    /** The server's "stats" response. Throws on transport failure or
     *  a non-stats response. */
    Json stats();

    /** The server's telemetry in Prometheus text exposition format
     *  (the "metrics" request's "text" member). Throws on transport
     *  failure or a non-metrics response. */
    std::string metricsText();

    /** Ask the server to stop; returns once it acknowledges. */
    void shutdown();

    /** Outcome of one sweep request. */
    struct SweepResult
    {
        bool ok = false;        ///< "done" frame arrived.
        int errorCode = 0;      ///< 400/429/500 when rejected.
        std::string errorMessage;
        bool memoHit = false;   ///< Server had the traces warm.
        uint64_t cellsExpected = 0;
        double wallSeconds = 0; ///< Server-side request wall time.
        /** Server-side latency from the "done" frame; no larger
         *  than the caller's own clock around sweep(). */
        uint64_t latencyUs = 0;
        std::vector<Json> cells; ///< Every "cell" frame, in arrival
                                 ///< order.
    };

    /**
     * Run one sweep request to completion, collecting every streamed
     * cell frame. An empty `workloads` means the suite's full set.
     * A non-empty `req_id` rides along for server-side correlation
     * (access log, traces); see serve/protocol.h. Structured
     * rejections land in the result; transport failures throw.
     */
    SweepResult sweep(const std::string &suite,
                      const std::vector<std::string> &configs,
                      const std::vector<std::string> &workloads,
                      uint64_t instructions,
                      const std::string &req_id = std::string());

  private:
    int fd_ = -1;
};

} // namespace ibs::serve

#endif // IBS_SERVE_CLIENT_H
