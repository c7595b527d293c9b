"""Blocking HTTP client for the run service (stdlib ``http.client``).

Used by the test suite, the ``service`` benchmark workload and anything
that wants to submit runs to a ``repro serve`` instance without asyncio.
The streaming protocol (chunked JSON lines; docs/SERVICE.md §4) is
decoded transparently: :meth:`ServiceClient.run` returns a
:class:`RunOutcome` carrying every stream event plus the final record.
"""

import json
from http import client as http_client
from urllib.parse import urlsplit


class ServiceError(Exception):
    """A non-200 service response."""

    def __init__(self, status, reason, retry_after=None):
        super().__init__(f"HTTP {status}: {reason}")
        self.status = status
        self.reason = reason
        self.retry_after = retry_after


class RunOutcome:
    """Everything one ``POST /v1/runs`` stream said."""

    def __init__(self, events):
        self.events = events

    @property
    def result(self):
        for event in reversed(self.events):
            if event.get("event") == "result":
                return event
        return None

    @property
    def record(self):
        result = self.result
        return result.get("record") if result else None

    @property
    def outcome(self):
        """"scheduled" | "deduped" | "cached" (the admission path)."""
        result = self.result
        return result.get("outcome") if result else None

    @property
    def status(self):
        result = self.result
        return result.get("status") if result else None

    @property
    def key(self):
        result = self.result
        return result.get("key") if result else None

    def progress_events(self):
        return [e for e in self.events if e.get("event") == "progress"]


class ServiceClient:
    """One service endpoint; connections are per-call (the service
    closes after each response)."""

    def __init__(self, base_url, timeout=300.0):
        parts = urlsplit(base_url)
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout

    def _connect(self):
        return http_client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _get_json(self, path):
        conn = self._connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise ServiceError(resp.status,
                                   _reason(body) or resp.reason)
            return json.loads(body)
        finally:
            conn.close()

    def health(self):
        return self._get_json("/healthz")

    def metrics(self):
        """The raw OpenMetrics exposition text."""
        conn = self._connect()
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise ServiceError(resp.status, resp.reason)
            return body.decode()
        finally:
            conn.close()

    def cache_entry(self, key):
        """Verbatim cache entry text for ``key``, or None on a miss."""
        conn = self._connect()
        try:
            conn.request("GET", f"/v1/cache/{key}")
            resp = conn.getresponse()
            body = resp.read()
            if resp.status == 404:
                return None
            if resp.status != 200:
                raise ServiceError(resp.status,
                                   _reason(body) or resp.reason)
            return body.decode()
        finally:
            conn.close()

    def run(self, spec, tenant=None, on_event=None):
        """Submit one run spec (a JSON-shaped dict) and consume the
        whole response stream. Raises :class:`ServiceError` on 4xx
        (429 carries ``retry_after``)."""
        body = json.dumps({"spec": spec}).encode()
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Tenant"] = str(tenant)
        conn = self._connect()
        try:
            conn.request("POST", "/v1/runs", body=body, headers=headers)
            resp = conn.getresponse()
            if resp.status != 200:
                payload = resp.read()
                retry = resp.getheader("Retry-After")
                raise ServiceError(
                    resp.status, _reason(payload) or resp.reason,
                    retry_after=float(retry) if retry else None)
            events = []
            for line in resp:  # http.client de-chunks transparently
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                events.append(event)
                if on_event is not None:
                    on_event(event)
            return RunOutcome(events)
        finally:
            conn.close()


def _reason(body):
    try:
        return json.loads(body).get("error")
    except Exception:
        return None
