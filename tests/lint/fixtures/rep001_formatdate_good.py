"""REP001 good: formatdate() is handed the time it formats."""

import email.utils
from email.utils import formatdate as http_date


def stamp_reply(headers, when_s, extra):
    headers["Date"] = email.utils.formatdate(when_s, usegmt=True)
    headers["Expires"] = http_date(timeval=when_s + 60.0)
    headers["Last-Modified"] = http_date(*extra)
    return headers
